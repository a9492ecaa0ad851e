#include "density/electro_density.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "audit/invariant_audit.hpp"
#include "grid/splat_kernel.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace rdp {

ElectroDensity::ElectroDensity(BinGrid grid, DensityConfig cfg)
    : grid_(grid), cfg_(cfg), solver_(grid.nx(), grid.ny()) {}

namespace {

/// Effective rasterization box of a cell: dimensions inflated by sqrt(r)
/// (area scales by r) and clamped up to one bin so sub-bin cells spread
/// their charge smoothly, with the charge scale preserving total area.
struct EffBox {
    Rect box;
    double scale;  ///< multiply overlap areas by this to conserve charge
};

EffBox effective_box(const Cell& c, double r, const BinGrid& g) {
    const double lin = std::sqrt(std::max(r, 0.0));
    const double w0 = c.width * lin;
    const double h0 = c.height * lin;
    const double w = std::max(w0, g.bin_w());
    const double h = std::max(h0, g.bin_h());
    const double target_area = c.area() * r;
    const double scale = (w * h) > 0.0 ? target_area / (w * h) : 0.0;
    return {Rect::from_center(c.pos, w, h), scale};
}

}  // namespace

GridF ElectroDensity::movable_density(
    const Design& d, const std::vector<double>* inflation) const {
    GridF rho = grid_.make_grid();
    // Chunk-parallel scatter with ordered merge (see parallel_splat).
    parallel_splat(grid_, rho, static_cast<size_t>(d.num_cells()), 512,
                   [&](GridF& g, size_t i) {
                       const Cell& c = d.cells[i];
                       if (!c.movable()) return;
                       const double r = inflation != nullptr
                                            ? (*inflation)[i]
                                            : 1.0;
                       const EffBox eb = effective_box(c, r, grid_);
                       grid_.splat_area(g, eb.box, eb.scale);
                   });
    return rho;
}

GridF ElectroDensity::fixed_density(const Design& d) const {
    GridF fixed = grid_.make_grid();
    parallel_splat(grid_, fixed, d.cells.size(), 512,
                   [&](GridF& g, size_t i) {
                       const Cell& c = d.cells[i];
                       if (c.movable()) return;
                       grid_.splat_area(g, c.bbox());
                   });
    return fixed;
}

void ElectroDensity::set_fixed(const Design& d) {
    fixed_ = fixed_density(d);
    fixed_cells_ = d.cells.size();
}

DensityResult ElectroDensity::evaluate(const Design& d,
                                       const std::vector<double>* inflation,
                                       const GridF* extra_density) const {
    DensityResult res;
    const size_t num_cells = static_cast<size_t>(d.num_cells());
    res.cell_grad.assign(num_cells, Vec2{});

    // Movable charge (with inflation) and fixed obstruction charge.
    const GridF mov = movable_density(d, inflation);
    GridF rho = mov;
    GridF local_fixed;
    if (fixed_.empty()) {
        local_fixed = fixed_density(d);
    } else if (fixed_cells_ != num_cells) {
        throw std::invalid_argument(
            "ElectroDensity::evaluate: the design does not match the one "
            "its fixed-cell density was built from");
    }
    const GridF& fixed = fixed_.empty() ? local_fixed : fixed_;
    // Fixed area beyond the target density acts as full charge; this keeps
    // macros repulsive without over-charging lightly blocked bins.
    grid_add(rho, fixed);
    if (extra_density != nullptr) {
        assert(grid_.compatible(*extra_density));
        grid_add(rho, *extra_density);
    }
    res.density = rho;

    // Invariant audit: the scatter must conserve charge — grid mass equals
    // the independently accumulated clipped footprint areas (per-cell
    // rectangle intersections, a separate arithmetic path from the per-bin
    // overlap loop in splat_area) plus the extra (DPA) charge.
    if (audit_enabled()) {
        double expected = 0.0;
        for (size_t i = 0; i < num_cells; ++i) {
            const Cell& c = d.cells[i];
            if (c.movable()) {
                const double r =
                    inflation != nullptr ? (*inflation)[i] : 1.0;
                const EffBox eb = effective_box(c, r, grid_);
                expected += eb.box.overlap_area(grid_.region()) * eb.scale;
            } else {
                expected += c.bbox().overlap_area(grid_.region());
            }
        }
        if (extra_density != nullptr) expected += grid_sum(*extra_density);
        audit::check_density_mass(rho, expected);
    }

    // Poisson solve on area-per-bin-area density (dimensionless): the
    // 1/bin_area normalization rides into the solver's spectral multipliers
    // instead of scaling a copy of the charge grid.
    const PoissonSolution& sol =
        solver_.solve(rho, solve_ws_, 1.0 / grid_.bin_area());
    if (audit_enabled())
        audit::check_spectral_finite("density", sol.potential, sol.field_x,
                                     sol.field_y);

    // Field is in grid-index units; convert to physical units.
    const double inv_bw = 1.0 / grid_.bin_w();
    const double inv_bh = 1.0 / grid_.bin_h();

    // Gather is the adjoint of the scatter: potential and field are
    // integrated over each cell's (effective) charge footprint with the
    // same overlap weights used to deposit the charge. The penalty sums
    // over ALL charges (movable and fixed) — the system energy
    // 1/2 sum q_i psi_i is only consistent with the per-cell gradient
    // q grad(psi) when fixed charges' energy terms are included, since
    // half of a movable-fixed interaction lives in the fixed term.
    // Parallel over cell chunks: gradients go to disjoint slots, the
    // penalty is reduced in fixed chunk order.
    res.penalty += par::parallel_sum(num_cells, 512, [&](size_t b, size_t e) {
        double psi_chunk = 0.0;
        for (size_t i = b; i < e; ++i) {
            const Cell& c = d.cells[i];
            const double r =
                (c.movable() && inflation != nullptr) ? (*inflation)[i] : 1.0;
            const EffBox eb = c.movable() ? effective_box(c, r, grid_)
                                          : EffBox{c.bbox(), 1.0};
            // Row-vectorized footprint gather (grid/splat_kernel.hpp);
            // fixed cells skip the field loads entirely.
            const GatherAcc acc =
                c.movable()
                    ? gather_rect<simd::VecD, true>(grid_, sol.potential,
                                                    sol.field_x, sol.field_y,
                                                    eb.box, eb.scale)
                    : gather_rect<simd::VecD, false>(grid_, sol.potential,
                                                     sol.potential,
                                                     sol.potential, eb.box,
                                                     eb.scale);
            psi_chunk += 0.5 * acc.psi;
            if (!c.movable()) continue;
            // dD/dx_i = q_i d(psi)/dx = -q_i E, footprint-averaged and
            // converted to physical units.
            res.cell_grad[i] = Vec2{-acc.ex * inv_bw, -acc.ey * inv_bh};
        }
        return psi_chunk;
    });

    // The extra (DPA) charge also carries its half of the interaction
    // energy, keeping penalty and gradient consistent.
    if (extra_density != nullptr) {
        res.penalty += par::parallel_sum(
            rho.size(), 16384, [&](size_t b, size_t e) {
                const double* q = extra_density->data();
                const double* psi = sol.potential.data();
                double acc = 0.0;
                for (size_t i = b; i < e; ++i) acc += 0.5 * q[i] * psi[i];
                return acc;
            });
    }

    // Normalized overflow tau = sum_b max(mov_b - target * free_b, 0) / mov.
    struct OverflowAcc {
        double mov = 0.0, over = 0.0;
    };
    const OverflowAcc of = par::parallel_reduce(
        mov.size(), 16384, OverflowAcc{},
        [&](size_t b, size_t e) {
            OverflowAcc acc;
            const double* m = mov.data();
            const double* f = fixed.data();
            for (size_t i = b; i < e; ++i) {
                const double free_area =
                    std::max(grid_.bin_area() - f[i], 0.0);
                acc.mov += m[i];
                acc.over += std::max(
                    m[i] - cfg_.target_density * free_area, 0.0);
            }
            return acc;
        },
        [](OverflowAcc a, OverflowAcc b) {
            a.mov += b.mov;
            a.over += b.over;
            return a;
        });
    res.overflow = of.mov > 0.0 ? of.over / of.mov : 0.0;
    return res;
}

}  // namespace rdp
