#pragma once
// Combined objective of the analytical routability-driven placement model
// (paper Eq. (5)):
//
//   f(x, y) = sum_e WA_e + lambda_1 D(x, y) + lambda_2 C(x, y)
//
// The wirelength and density terms are re-evaluated every Nesterov
// iteration. The congestion term uses the *frozen* congestion map/field of
// the most recent global routing (outer iteration), but its gradient is
// recomputed at the current cell positions through Algorithms 1-2 —
// virtual-cell positions move with the nets. lambda_2 follows Eq. (10)
// from the current gradient norms; lambda_1 follows the caller's ePlace
// schedule.

#include <vector>

#include "congestion/bbox_penalty.hpp"
#include "congestion/congestion_field.hpp"
#include "congestion/net_moving.hpp"
#include "density/electro_density.hpp"
#include "wirelength/wa_model.hpp"

namespace rdp {

/// Which congestion-gradient model drives the C(x, y) term: the paper's
/// net-moving gradients, or the prior bounding-box penalty [2] it is
/// compared against (ablation_dc_model bench).
enum class DcModel { NetMoving, BoundingBox };

struct ObjectiveTerms {
    double wirelength = 0.0;       ///< WA total
    double density = 0.0;          ///< D(x, y)
    double congestion = 0.0;       ///< C(x, y)
    double lambda1 = 0.0;
    double lambda2 = 0.0;
    double overflow = 0.0;         ///< density overflow tau
    int num_congested_cells = 0;   ///< N_C of Eq. (10)
    double wl_grad_l1 = 0.0;       ///< ||grad W||_1 (lambda_1 initialization)
    double density_grad_l1 = 0.0;  ///< ||grad D||_1
};

class PlacementObjective {
public:
    PlacementObjective(BinGrid grid, DensityConfig density_cfg,
                       NetMovingConfig netmove_cfg, double gamma);

    /// Build the per-run state for `d`: one pin-slot layout that the WA and
    /// net-moving kernels share, their term buffers, and the fixed cells'
    /// density. Every later evaluate() must pass `d` or a design with its
    /// netlist and fixed cells (movable positions may differ); the state
    /// dies with this objective. Without a call, every evaluate() builds
    /// that state itself, with the same bits.
    void bind(const Design& d);

    // --- state plugged in by the placer / routability loop ----------------
    void set_gamma(double g) { wa_.set_gamma(g); }
    double gamma() const { return wa_.gamma(); }
    void set_lambda1(double l) { lambda1_ = l; }
    double lambda1() const { return lambda1_; }
    /// Per-cell inflation ratios (owned by the caller); nullptr = none.
    void set_inflation(const std::vector<double>* r) { inflation_ = r; }
    /// Extra bin density in area units (DPA term); nullptr = none.
    void set_extra_density(const GridF* extra) { extra_density_ = extra; }
    /// Congestion map + field for the DC term; both nullptr disables it.
    void set_congestion(const CongestionMap* cmap,
                        const CongestionField* field) {
        cmap_ = cmap;
        cfield_ = field;
    }
    /// Damping multiplier applied on top of the Eq. (10) lambda_2.
    void set_lambda2_scale(double s) { lambda2_scale_ = s; }
    /// Select the congestion gradient model (default: net moving).
    void set_dc_model(DcModel m) { dc_model_ = m; }
    DcModel dc_model() const { return dc_model_; }

    const BinGrid& grid() const { return density_.grid(); }

    /// Write `pos` into the movable cells of `d`, evaluate all terms, and
    /// fill `grad_out` (same indexing as `movable`/`pos`) with
    /// grad WA + lambda1 grad D + lambda2 grad C.
    ObjectiveTerms evaluate(Design& d, const std::vector<int>& movable,
                            const std::vector<Vec2>& pos,
                            std::vector<Vec2>& grad_out) const;

private:
    WAWirelength wa_;
    ElectroDensity density_;
    NetMovingGradient netmove_;
    BBoxCongestionGradient bbox_;
    DcModel dc_model_ = DcModel::NetMoving;
    double lambda1_ = 0.0;
    double lambda2_scale_ = 1.0;
    const std::vector<double>* inflation_ = nullptr;
    const GridF* extra_density_ = nullptr;
    const CongestionMap* cmap_ = nullptr;
    const CongestionField* cfield_ = nullptr;
};

}  // namespace rdp
