// Equivalence property tests of the incremental routing state
// (router/incremental.hpp): under random perturbation sequences — move
// cells, roll positions back, resize the grid, change the router config —
// a route call through a persistent state must be bitwise identical to a
// from-scratch call, at every thread count, while actually reusing the
// cache; and a corrupted cache must trip the incremental-route auditor.

#include <gtest/gtest.h>

#include <vector>

#include "benchgen/generator.hpp"
#include "router/global_router.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace rdp {
namespace {

Design small_design(uint64_t seed = 7, int cells = 400) {
    GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.num_cells = cells;
    cfg.num_macros = 2;
    return generate_circuit(cfg);
}

/// Move `count` movable cells by up to `frac` of the die extent (clamped
/// to the region). Deterministic in `rng`.
void perturb(Design& d, Rng& rng, int count, double frac) {
    std::vector<int> movable;
    for (int i = 0; i < d.num_cells(); ++i)
        if (d.cells[static_cast<size_t>(i)].movable()) movable.push_back(i);
    ASSERT_FALSE(movable.empty());
    const double dx = frac * d.region.width();
    const double dy = frac * d.region.height();
    for (int k = 0; k < count; ++k) {
        const int ci = movable[static_cast<size_t>(rng.uniform_int(
            0, static_cast<int>(movable.size()) - 1))];
        Cell& c = d.cells[static_cast<size_t>(ci)];
        c.pos = {std::clamp(c.pos.x + rng.uniform(-dx, dx), d.region.lx,
                            d.region.hx),
                 std::clamp(c.pos.y + rng.uniform(-dy, dy), d.region.ly,
                            d.region.hy)};
    }
}

/// Bitwise comparison of everything a RouteResult reports (the inc_*
/// reconciliation counters excepted — those describe the cache, not the
/// routing).
void expect_same_routing(const RouteResult& a, const RouteResult& b) {
    EXPECT_TRUE(a.demand_h == b.demand_h);
    EXPECT_TRUE(a.demand_v == b.demand_v);
    EXPECT_TRUE(a.bend_vias == b.bend_vias);
    EXPECT_TRUE(a.pin_vias == b.pin_vias);
    EXPECT_TRUE(a.congestion.demand() == b.congestion.demand());
    EXPECT_TRUE(a.congestion.capacity() == b.congestion.capacity());
    EXPECT_EQ(a.wirelength_dbu, b.wirelength_dbu);
    EXPECT_EQ(a.num_vias, b.num_vias);
    EXPECT_EQ(a.total_overflow, b.total_overflow);
    EXPECT_EQ(a.overflowed_gcells, b.overflowed_gcells);
    EXPECT_EQ(a.rrr_rounds_executed, b.rrr_rounds_executed);
    EXPECT_EQ(a.rrr_rounds_stalled, b.rrr_rounds_stalled);
}

TEST(IncrementalRouteTest, MatchesFullRouteAcrossPerturbations) {
    Design d = small_design();
    const BinGrid grid(d.region, 32, 32);
    const GlobalRouter router(grid);
    IncrementalRouteState state;

    Rng rng(21);
    for (int step = 0; step < 6; ++step) {
        if (step > 0) perturb(d, rng, 8, 0.05);
        const RouteResult inc = router.route(d, &state);
        const RouteResult full = router.route(d);
        expect_same_routing(inc, full);
        EXPECT_EQ(inc.inc_full_rebuild, step == 0);
        if (step > 0) {
            // A handful of moved cells must not invalidate everything.
            EXPECT_LT(inc.inc_conns_rerouted, inc.inc_conns_total);
        }
    }
    EXPECT_EQ(state.stats.full_rebuilds, 1);
    EXPECT_GT(state.stats.cache_hits, 0);
}

TEST(IncrementalRouteTest, UnchangedPlacementReroutesNothing) {
    const Design d = small_design();
    const BinGrid grid(d.region, 32, 32);
    const GlobalRouter router(grid);
    IncrementalRouteState state;

    const RouteResult first = router.route(d, &state);
    EXPECT_TRUE(first.inc_full_rebuild);
    const RouteResult second = router.route(d, &state);
    EXPECT_FALSE(second.inc_full_rebuild);
    EXPECT_EQ(second.inc_conns_rerouted, 0);
    EXPECT_EQ(second.inc_nets_rerouted, 0);
    expect_same_routing(first, second);
}

TEST(IncrementalRouteTest, PositionRollbackStaysConsistent) {
    // Returning to previously-seen positions through the *same* cache (no
    // invalidate) must still equal a fresh route: the signature diff, not
    // the trajectory, decides what gets rerouted.
    Design d = small_design();
    const BinGrid grid(d.region, 32, 32);
    const GlobalRouter router(grid);
    IncrementalRouteState state;

    std::vector<Vec2> saved(d.cells.size());
    for (size_t i = 0; i < d.cells.size(); ++i) saved[i] = d.cells[i].pos;

    Rng rng(33);
    (void)router.route(d, &state);
    perturb(d, rng, 20, 0.1);
    (void)router.route(d, &state);
    for (size_t i = 0; i < d.cells.size(); ++i) d.cells[i].pos = saved[i];

    const RouteResult inc = router.route(d, &state);
    expect_same_routing(inc, router.route(d));
    // invalidate() forces a rebuild and must land on the same result.
    state.invalidate();
    const RouteResult rebuilt = router.route(d, &state);
    EXPECT_TRUE(rebuilt.inc_full_rebuild);
    expect_same_routing(inc, rebuilt);
}

TEST(IncrementalRouteTest, GridResizeAndConfigChangeForceRebuild) {
    Design d = small_design();
    IncrementalRouteState state;

    const BinGrid grid32(d.region, 32, 32);
    const GlobalRouter r32(grid32);
    (void)r32.route(d, &state);

    // Same state against a resized grid: full rebuild, fresh-equal result.
    const BinGrid grid48(d.region, 48, 48);
    const GlobalRouter r48(grid48);
    const RouteResult resized = r48.route(d, &state);
    EXPECT_TRUE(resized.inc_full_rebuild);
    expect_same_routing(resized, r48.route(d));

    // Relaxed router config (the recovery ladder's relax-router rung):
    // the config key must force a rebuild even at identical dimensions.
    RouterConfig relaxed;
    relaxed.overflow_penalty *= 0.5;
    for (LayerSpec& l : relaxed.layers) l.capacity /= 0.5;
    const GlobalRouter r48r(grid48, relaxed);
    const RouteResult relaxed_rr = r48r.route(d, &state);
    EXPECT_TRUE(relaxed_rr.inc_full_rebuild);
    expect_same_routing(relaxed_rr, r48r.route(d));
}

TEST(IncrementalRouteTest, ThreadCountInvariant) {
    // The whole perturbation sequence, replayed per thread count, must
    // yield bitwise-identical demand maps and scalar metrics.
    const int saved = par::max_threads();
    auto run_sequence = [&] {
        Design d = small_design();
        const BinGrid grid(d.region, 32, 32);
        const GlobalRouter router(grid);
        IncrementalRouteState state;
        Rng rng(55);
        RouteResult last;
        for (int step = 0; step < 5; ++step) {
            if (step > 0) perturb(d, rng, 10, 0.08);
            if (step == 3) state.invalidate();  // mix cold and warm calls
            last = router.route(d, &state);
        }
        return last;
    };
    par::set_max_threads(1);
    const RouteResult base = run_sequence();
    for (int t : {2, 8}) {
        par::set_max_threads(t);
        expect_same_routing(run_sequence(), base);
    }
    par::set_max_threads(saved);
}

TEST(IncrementalRouteTest, CorruptedCacheTripsIncrementalRouteAuditor) {
    if (!audit_enabled()) GTEST_SKIP() << "audits disabled in this build";
    Design d = small_design();
    const BinGrid grid(d.region, 32, 32);
    const GlobalRouter router(grid);
    IncrementalRouteState state;

    (void)router.route(d, &state);
    // Stale-cache corruption: the maintained demand no longer equals the
    // cached routes. The next reconciliation must throw, naming the
    // incremental-route invariant; invalidate() must clear the condition.
    state.dem_h.at(0, 0) += 1.0;
    try {
        (void)router.route(d, &state);
        FAIL() << "corrupted incremental demand was not detected";
    } catch (const AuditFailure& e) {
        EXPECT_EQ(e.invariant(), "incremental-route");
    }
    state.invalidate();
    EXPECT_NO_THROW((void)router.route(d, &state));
}

}  // namespace
}  // namespace rdp
