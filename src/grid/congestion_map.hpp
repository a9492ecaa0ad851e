#pragma once
// Routing congestion map (paper Eq. (3)). The global router produces 3D
// per-layer demand/capacity; this container holds the 2D layer-summed maps
//   Dmd_{m,n} = sum_l Dmd_{m,n,l},  Cap_{m,n} = sum_l Cap_{m,n,l}
// and derives
//   C_{m,n}   = max(Dmd/Cap - 1, 0)          (Eq. (3), overflow congestion)
//   rho_{m,n} = Dmd/Cap                      (charge density for the
//                                             congestion Poisson field)
// The Eq. (3) grid is computed once at construction, so congestion_at (the
// inner loop of find_virtual_cell and of the multi-pin selection) is a load.

#include "grid/bin_grid.hpp"
#include "util/grid2d.hpp"

namespace rdp {

class CongestionMap {
public:
    CongestionMap() = default;
    CongestionMap(BinGrid grid, GridF demand, GridF capacity);

    const BinGrid& grid() const { return grid_; }
    const GridF& demand() const { return demand_; }
    const GridF& capacity() const { return capacity_; }

    /// Eq. (3) congestion of one G-cell.
    double congestion_at(int ix, int iy) const {
        return congestion_.at(ix, iy);
    }
    /// Eq. (3) congestion of the G-cell containing p.
    double congestion_at_point(Vec2 p) const;
    /// Demand / capacity of one G-cell (>= 0; 0 where capacity is 0).
    double utilization_at(int ix, int iy) const;

    /// Full Eq. (3) congestion grid.
    const GridF& congestion_grid() const { return congestion_; }
    /// Full Dmd/Cap grid (the rho of the congestion Poisson problem).
    GridF utilization_grid() const;

    /// Mean of Eq. (3) congestion over all G-cells (the \bar{C} used by
    /// momentum inflation Eq. (12) and the DPA gate Eq. (15)).
    double average_congestion() const;
    /// Number of G-cells with positive Eq. (3) congestion.
    int overflowed_cells() const;
    /// Sum over G-cells of max(Dmd - Cap, 0) — absolute overflow.
    double total_overflow() const;
    /// Severity-weighted overflow: sum of max(Dmd - slack*Cap, 0) *
    /// (Dmd/Cap)^exponent. With slack > 1 and exponent > 0 this counts the
    /// hard hotspots that survive detailed-routing detours — the quantity
    /// the #DRVs proxy is built on.
    double weighted_overflow(double slack = 1.2, double exponent = 2.0) const;
    /// Maximum utilization over all G-cells.
    double peak_utilization() const;

private:
    BinGrid grid_;
    GridF demand_;
    GridF capacity_;
    GridF congestion_;  ///< Eq. (3) per G-cell
};

}  // namespace rdp
