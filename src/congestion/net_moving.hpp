#pragma once
// Congestion gradient update for net moving (paper Algorithms 1 and 2).
//
// Unlike the density field — whose gradient is applied to every movable
// cell directly — the congestion field's gradient is redistributed through
// the netlist:
//   * two-pin nets get a virtual cell at the most congested point of the
//     pin-to-pin segment; the virtual cell's field gradient is projected
//     onto the segment normal and scaled by L/(2 d_iv) for each endpoint
//     cell (Algorithm 1, Eq. (9)), which moves the whole net sideways out
//     of the congested region;
//   * selected multi-pin cells (pin count above the design average AND
//     sitting in a G-cell with Eq. (3) congestion above a threshold) get
//     the plain field gradient (Algorithm 2, lines 7-15).
// Gradients superpose over all nets (Algorithm 2, closing remark).
//
// compute() writes each net's terms into its pin slots (db/pin_slots.hpp)
// and gathers every movable cell's slots, with the same bits as the
// per-chunk accumulators it replaced. The multi-pin selection of
// Algorithm 2 depends on the cell only, so it runs once per cell.

#include <memory>
#include <vector>

#include "congestion/congestion_field.hpp"
#include "congestion/virtual_cell.hpp"
#include "db/design.hpp"
#include "db/pin_slots.hpp"

namespace rdp {

struct NetMovingConfig {
    /// Alg. 2 line 11: Eq. (3) congestion a multi-pin cell's G-cell must
    /// exceed before the cell receives a direct congestion gradient.
    double multi_pin_congestion_threshold = 0.7;
    /// Two-pin moving is skipped when the virtual cell's congestion is at or
    /// below this (no congestion to escape from).
    double min_virtual_congestion = 0.0;
    /// Lower clamp for d_iv in Eq. (9) as a fraction of the G-cell diagonal,
    /// preventing an unbounded gradient when a pin coincides with c_v.
    double min_pin_distance_frac = 0.25;
    /// Upper clamp on the Eq. (9) factor L / (2 d_iv): very long nets with
    /// a pin right at the virtual cell would otherwise produce gradient
    /// spikes orders of magnitude above everything else.
    double max_distance_scale = 16.0;
    /// EXTENSION (not in the paper): apply the virtual-cell net-moving
    /// gradient to every MST edge of multi-pin nets as well: each edge adds
    /// its two Algorithm 1 endpoint terms, weighted by 1/(degree-1), to the
    /// slots of its two endpoint pins. The paper restricts Algorithm 1 to
    /// two-pin nets and handles multi-pin nets only through Algorithm 2's
    /// cell moving; this generalizes the same mechanism to the tree edges.
    bool move_multi_pin_edges = false;
    /// Degree cap for the extension (giant nets contribute noise).
    int max_multi_pin_degree = 12;
};

struct NetMovingResult {
    /// Congestion gradient CGrad per cell (dC/d center); zero for cells not
    /// selected by either mechanism.
    std::vector<Vec2> cell_grad;
    /// Penalty C(x,y) = 1/2 sum_{i in V'} A_i psi_i over virtual cells and
    /// selected multi-pin cells.
    double penalty = 0.0;
    /// Movable cells located in G-cells with positive Eq. (3) congestion —
    /// the N_C of the lambda_2 schedule (Eq. (10)).
    int num_congested_cells = 0;
    int virtual_cells_created = 0;
    int multi_pin_updates = 0;
};

class NetMovingGradient {
public:
    explicit NetMovingGradient(NetMovingConfig cfg = {}) : cfg_(cfg) {}

    const NetMovingConfig& config() const { return cfg_; }

    /// Compute through `slots` from now on, with buffers this object keeps
    /// between calls (PlacementObjective::bind). compute() then needs a
    /// design of the layout's netlist shape, and one instance must not
    /// compute concurrently. nullptr (the default): a layout per call.
    void set_slots(std::shared_ptr<const PinSlots> slots) {
        slots_ = std::move(slots);
    }

    /// Run Algorithm 2 over every net of the design.
    NetMovingResult compute(const Design& d, const CongestionMap& cmap,
                            const CongestionField& field) const;

    /// Algorithm 1 for a single two-pin net; adds the two endpoint-cell
    /// gradients into `grad` and returns the virtual cell (for tests /
    /// the Fig. 3 bench). `virtual_area` is the charge area of c_v.
    VirtualCell two_pin_gradient(const Design& d, Vec2 p1, Vec2 p2, int cell1,
                                 int cell2, double virtual_area,
                                 const CongestionMap& cmap,
                                 const CongestionField& field,
                                 std::vector<Vec2>& grad) const;

private:
    /// Algorithm 1 for the segment p1 -> p2: the virtual cell, and the two
    /// endpoint gradients when the net is moved (`applied`).
    struct TwoPinTerms {
        VirtualCell vc;
        bool applied = false;
        Vec2 grad[2];
    };
    TwoPinTerms two_pin_terms(Vec2 p1, Vec2 p2, double virtual_area,
                              const CongestionMap& cmap,
                              const CongestionField& field) const;

    /// Algorithm 2's multi-pin selection of one cell (lines 7-15).
    struct MultiPin {
        Vec2 grad;             ///< field gradient of the cell's charge
        double penalty = 0.0;  ///< 1/2 A_i psi_i
        bool selected = false;
    };
    /// Per-slot two-pin / MST terms and per-cell multi-pin selections.
    struct Buffers {
        std::vector<Vec2> terms;
        std::vector<MultiPin> cells;
    };
    NetMovingResult compute_with(const Design& d, const CongestionMap& cmap,
                                 const CongestionField& field,
                                 const PinSlots& slots, Buffers& buf) const;

    NetMovingConfig cfg_;
    std::shared_ptr<const PinSlots> slots_;
    mutable Buffers buf_;
};

}  // namespace rdp
