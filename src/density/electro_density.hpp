#pragma once
// Electrostatics-based density penalty D(x, y) (ePlace, paper Section II-A).
// Cells are charges with q_i = (inflated) cell area; the bin-wise charge
// density feeds the spectral Poisson solver; the penalty is
//   D = 1/2 sum_i q_i psi(x_i)
// and its gradient wrt a movable cell center is -q_i E(x_i).
//
// Two hooks implement the paper's congestion-mitigation techniques:
//  * per-cell inflation ratios (momentum-based cell inflation, Section III-B)
//    multiply each movable cell's charge AREA by r_i;
//  * an extra density grid (the D^PG term of dynamic pin-accessibility
//    density adjustment, Section III-C, Eq. (14)) is added to the bin
//    density before solving.

#include <vector>

#include "db/design.hpp"
#include "grid/bin_grid.hpp"
#include "poisson/poisson.hpp"

namespace rdp {

struct DensityConfig {
    /// Target utilization of the free area; overflow is measured against it.
    double target_density = 0.9;
};

struct DensityResult {
    double penalty = 0.0;          ///< D = 1/2 sum q_i psi_i over movables
    std::vector<Vec2> cell_grad;   ///< dD/d(center) for every cell (0 for fixed)
    double overflow = 0.0;         ///< normalized density overflow (tau)
    GridF density;                 ///< total charge density per bin (area units)
};

class ElectroDensity {
public:
    explicit ElectroDensity(BinGrid grid, DensityConfig cfg = {});

    const BinGrid& grid() const { return grid_; }
    const DensityConfig& config() const { return cfg_; }

    /// Splat `d`'s fixed cells once and reuse that grid in every later
    /// evaluate() (PlacementObjective::bind): evaluate() then needs a
    /// design with the same fixed cells in the same places. Without a call,
    /// evaluate() splats them on every call.
    void set_fixed(const Design& d);

    /// Evaluate penalty/gradient/overflow.
    /// `inflation`: optional per-cell area inflation ratios (size num_cells;
    /// only movable entries are used). `extra_density`: optional additional
    /// charge (area units) per bin, e.g. the DPA PG-rail term.
    DensityResult evaluate(const Design& d,
                           const std::vector<double>* inflation = nullptr,
                           const GridF* extra_density = nullptr) const;

    /// Movable-area density grid only (no fixed, no extra); used by tests
    /// and the Fig. 1 congestion decomposition bench.
    GridF movable_density(const Design& d,
                          const std::vector<double>* inflation = nullptr) const;

private:
    /// Fixed-cell (obstruction) charge per bin.
    GridF fixed_density(const Design& d) const;

    BinGrid grid_;
    DensityConfig cfg_;
    /// set_fixed's grid and the cell count it was built for (empty and 0
    /// until set_fixed).
    GridF fixed_;
    size_t fixed_cells_ = 0;
    PoissonSolver solver_;
    /// Persistent solve scratch + outputs: after the first evaluate() the
    /// Poisson stage performs no allocation. Mutable because evaluate() is
    /// logically const; evaluate() itself is not safe to call concurrently
    /// on one instance (it never was — the solver shares transform state).
    mutable PoissonWorkspace solve_ws_;
};

}  // namespace rdp
