#pragma once
// Stage-boundary invariant audits: mechanical checks of the conservation
// laws and contracts the paper's physics depends on, run at the boundaries
// of the placement/routing pipeline (see DESIGN.md "Correctness tooling").
//
// Registered auditors and their invariants:
//   finite-gradients   WA / density / net-moving gradient vectors contain
//                      no NaN or infinity (checked every objective
//                      evaluation inside the Nesterov loops).
//   density-mass       the density grid's total charge equals the sum of
//                      every cell's clipped (inflated) footprint area plus
//                      the extra (DPA) charge, within relative tolerance —
//                      the FFTPL-style density equalization conserves mass.
//   router-accounting  per-direction edge demand equals the sum over all
//                      committed route segments, bend vias equal the sum of
//                      path bends, and negotiation history costs are
//                      non-negative (checked after the initial routing pass
//                      and after every rip-up-and-reroute round).
//   congestion-finite  the Eq. (3) congestion map consumed by the
//                      routability loop has finite, non-negative demand and
//                      capacity everywhere (checked on every fresh map,
//                      router-produced or RUDY-estimated).
//   spectral-finite    the potential and field grids produced by a spectral
//                      Poisson solve contain no NaN or infinity (checked on
//                      every density solve; catches FFT/DCT kernel
//                      corruption before it poisons the gradients).
//   incremental-route  the delta-maintained phase-A demand of the
//                      incremental router equals a from-scratch recompute
//                      over the cached per-net routes exactly (checked
//                      after every cache reconciliation; catches stale or
//                      corrupted incremental state).
//   inflation-budget   after budgeting, inflated-area bookkeeping balances:
//                      every ratio is finite and positive, real-cell area
//                      growth stays within the filler-area budget net of
//                      the PG density charge, and filler shrink ratios are
//                      uniform and inside (0, 1].
//   legalized          every movable cell is row- and site-aligned, inside
//                      the region, and overlap-free against movables and
//                      fixed cells/macros.
//
// Auditors observe state and throw AuditFailure (util/check.hpp) naming
// the active stage on violation; they never mutate placement or routing
// results. All of them are no-ops unless audit_enabled().

#include <string>
#include <string_view>
#include <vector>

#include "db/design.hpp"
#include "grid/bin_grid.hpp"
#include "grid/congestion_map.hpp"
#include "router/pattern_route.hpp"
#include "util/check.hpp"
#include "util/grid2d.hpp"

namespace rdp::audit {

struct AuditorInfo {
    const char* name;
    const char* description;
};

/// Names and one-line descriptions of every registered auditor.
const std::vector<AuditorInfo>& registered_auditors();

/// How many times the named auditor has run (and passed) in this process.
/// Unknown names return -1.
long long runs(std::string_view name);
/// Zero all run counters (tests).
void reset_runs();

/// `what` names the gradient term ("wirelength", "density", "net-moving").
void check_gradients_finite(const char* what, const std::vector<Vec2>& grad);

/// `density` is the full charge grid; `expected_area` the independently
/// accumulated total charge (clipped cell footprints + extra density).
void check_density_mass(const GridF& density, double expected_area,
                        double rel_tol = 1e-6);

/// Recomputes per-direction demand and bend vias from `paths` exactly as
/// RouteState::commit accumulates them and requires bitwise-equal grids;
/// also requires hist_h/hist_v >= 0 everywhere.
void check_router_accounting(const GridF& dem_h, const GridF& dem_v,
                             const GridF& bend_vias,
                             const std::vector<RoutePath>& paths,
                             const GridF& hist_h, const GridF& hist_v);

/// Cross-checks the incremental router's delta-maintained demand against a
/// from-scratch recompute over the cached routes (same exact-equality
/// recompute as check_router_accounting, without the history-cost clause —
/// phase-A state carries no history).
void check_incremental_route(const GridF& dem_h, const GridF& dem_v,
                             const GridF& bend_vias,
                             const std::vector<RoutePath>& paths);

/// Finite, non-negative demand and capacity in every G-cell of `cmap`.
void check_congestion_map(const CongestionMap& cmap);
/// The same predicate, usable with audits off: false (and a description
/// of the first invalid G-cell in `msg`) when one exists.
bool congestion_map_valid(const CongestionMap& cmap, std::string& msg);

/// Every entry of a spectral solve's potential and field grids is finite.
/// `what` names the solve ("density", "congestion", ...). Grid references
/// keep this decoupled from the solver's result types (the audit library
/// does not link against the poisson layer).
void check_spectral_finite(const char* what, const GridF& potential,
                           const GridF& field_x, const GridF& field_y);

/// Audit the post-budget inflation ratios (see budget_inflation):
/// cells [0, first_filler) are real, the rest fillers. `extra_area` is the
/// PG density charge taken off the top of the budget.
void check_inflation_budget(const Design& d, int first_filler,
                            const std::vector<double>& ratios,
                            double usable_filler_frac, double extra_area);

/// Row/site alignment, region containment, and overlap-freedom of all
/// movable cells.
void check_legalized(const Design& d, double eps = 1e-6);

}  // namespace rdp::audit
