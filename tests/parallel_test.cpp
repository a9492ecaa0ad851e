// Determinism contract of the parallel execution layer: chunk plans are a
// function of the problem size only, reductions combine in fixed chunk
// order, and every parallelized kernel — WA wirelength, density, Poisson,
// global router, net-moving gradient, and the full place->route->eval flow —
// produces bitwise-identical results for RDP_THREADS = 1, 2, and 8.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "benchgen/generator.hpp"
#include "congestion/congestion_field.hpp"
#include "congestion/net_moving.hpp"
#include "density/electro_density.hpp"
#include "eval/route_metrics.hpp"
#include "place/global_placer.hpp"
#include "poisson/poisson.hpp"
#include "router/global_router.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "wirelength/hpwl.hpp"
#include "wirelength/wa_model.hpp"

namespace rdp {
namespace {

/// Restores the ambient thread count on scope exit.
struct ThreadGuard {
    int saved = par::max_threads();
    ~ThreadGuard() { par::set_max_threads(saved); }
};

/// Run `fn` under each thread count and require bitwise-equal results.
template <typename Fn>
void expect_thread_invariant(Fn&& fn) {
    ThreadGuard guard;
    par::set_max_threads(1);
    const auto base = fn();
    for (int t : {2, 8}) {
        par::set_max_threads(t);
        const auto got = fn();
        EXPECT_TRUE(got == base) << "result differs at " << t << " threads";
    }
}

TEST(ChunkPlanTest, CoversRangeExactlyOnce) {
    for (size_t n : {0ul, 1ul, 7ul, 64ul, 1000ul, 65537ul}) {
        for (size_t grain : {1ul, 16ul, 4096ul}) {
            const par::ChunkPlan p = par::plan(n, grain);
            ASSERT_GE(p.num_chunks, 1u);
            EXPECT_EQ(p.begin(0), 0u);
            EXPECT_EQ(p.end(p.num_chunks - 1), n);
            for (size_t c = 0; c + 1 < p.num_chunks; ++c) {
                EXPECT_EQ(p.end(c), p.begin(c + 1));
                EXPECT_LT(p.begin(c), p.end(c));  // no empty chunks
            }
        }
    }
}

TEST(ChunkPlanTest, IndependentOfThreadCount) {
    ThreadGuard guard;
    par::set_max_threads(1);
    const par::ChunkPlan a = par::plan(100000, 64);
    par::set_max_threads(8);
    const par::ChunkPlan b = par::plan(100000, 64);
    EXPECT_EQ(a.num_chunks, b.num_chunks);
}

TEST(ParallelForTest, VisitsEveryIndexOnce) {
    ThreadGuard guard;
    par::set_max_threads(8);
    const size_t n = 100003;
    std::vector<int> hits(n, 0);
    par::parallel_for(n, 64, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) ++hits[i];
    });
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelReduceTest, SumIsThreadInvariant) {
    // Floating-point sums depend on grouping; the fixed chunk-order combine
    // must make them identical across thread counts.
    Rng rng(11);
    std::vector<double> xs(123457);
    for (auto& v : xs) v = rng.uniform(-1.0, 1.0);
    expect_thread_invariant([&] {
        return par::parallel_sum(xs.size(), 1024, [&](size_t b, size_t e) {
            double acc = 0.0;
            for (size_t i = b; i < e; ++i) acc += xs[i];
            return acc;
        });
    });
}

TEST(ParallelReduceTest, BoolPartialsAreNeverLost) {
    // Regression: bool partials once lived in a bit-packed std::vector<bool>,
    // so concurrent chunks raced on one word and a lone `true` could vanish
    // (the router's RRR any-overflow flag then ended negotiation early).
    ThreadGuard guard;
    par::set_max_threads(4);
    int lost = 0;
    for (int rep = 0; rep < 20000; ++rep) {
        const size_t hot = static_cast<size_t>(rep) % 64;
        const bool any = par::parallel_reduce(
            64, 1, false,
            [&](size_t b, size_t e) { return b <= hot && hot < e; },
            [](bool a, bool b) { return a || b; });
        if (!any) ++lost;
    }
    EXPECT_EQ(lost, 0) << "of 20000 reductions lost their true chunk";
}

TEST(ParallelReduceTest, NestedParallelRunsInline) {
    ThreadGuard guard;
    par::set_max_threads(8);
    // A parallel region launched from inside a chunk must not deadlock and
    // must produce the same chunked result.
    const double nested = par::parallel_sum(64, 1, [&](size_t b, size_t e) {
        double acc = 0.0;
        for (size_t i = b; i < e; ++i) {
            acc += par::parallel_sum(256, 16, [&](size_t ib, size_t ie) {
                return static_cast<double>(ie - ib) * static_cast<double>(i + 1);
            });
        }
        return acc;
    });
    EXPECT_DOUBLE_EQ(nested, 256.0 * (64.0 * 65.0 / 2.0));
}

Design test_design(int cells, uint64_t seed) {
    GeneratorConfig cfg;
    cfg.name = "par-test";
    cfg.seed = seed;
    cfg.num_cells = cells;
    cfg.num_macros = 2;
    cfg.utilization = 0.8;
    return generate_circuit(cfg);
}

TEST(KernelDeterminismTest, WaWirelength) {
    const Design d = test_design(1500, 3);
    const WAWirelength wa(8.0);
    expect_thread_invariant([&] {
        const WirelengthResult r = wa.evaluate(d);
        return std::make_pair(r.total, r.cell_grad);
    });
}

TEST(KernelDeterminismTest, ElectroDensity) {
    const Design d = test_design(1500, 4);
    const BinGrid grid(d.region, 32, 32);
    const ElectroDensity ed(grid);
    expect_thread_invariant([&] {
        const DensityResult r = ed.evaluate(d);
        return std::make_tuple(r.penalty, r.overflow, r.cell_grad,
                               r.density.raw());
    });
}

TEST(KernelDeterminismTest, PoissonSolve) {
    Rng rng(7);
    GridF rho(64, 64);
    for (auto& v : rho) v = rng.uniform();
    const PoissonSolver solver(64, 64);
    expect_thread_invariant([&] {
        const PoissonSolution s = solver.solve(rho);
        return std::make_tuple(s.potential.raw(), s.field_x.raw(),
                               s.field_y.raw());
    });
}

TEST(KernelDeterminismTest, GlobalRouter) {
    const Design d = test_design(900, 5);
    const BinGrid grid(d.region, 32, 32);
    const GlobalRouter router(grid);
    expect_thread_invariant([&] {
        const RouteResult r = router.route(d);
        return std::make_tuple(r.wirelength_dbu, r.total_overflow,
                               r.num_vias, r.demand_h.raw(), r.demand_v.raw(),
                               r.bend_vias.raw(), r.pin_vias.raw());
    });
}

/// Every routing output that must not depend on the thread count.
auto route_bits(const RouteResult& r) {
    return std::make_tuple(r.wirelength_dbu, r.total_overflow, r.num_vias,
                           r.overflowed_gcells, r.rrr_rounds_executed,
                           r.rrr_rounds_stalled, r.demand_h.raw(),
                           r.demand_v.raw(), r.bend_vias.raw(),
                           r.pin_vias.raw(), r.congestion.demand().raw());
}

/// Congested designs on 64x64 and 128x128 grids, routed at 1, 2, 3, 4
/// and 7 threads: rip-up-and-reroute runs, and every routing output is
/// bitwise equal at each count. Most connections route cleanly, so each
/// reroute's commits change which later connections still overflow.
TEST(KernelDeterminismTest, GlobalRouterCongestedGridsAreThreadInvariant) {
    ThreadGuard guard;
    const Design d = test_design(300, 7);
    for (const auto& [n, capacity_scale] : {std::pair{64, 2.0}, {128, 3.0}}) {
        RouterConfig rc;
        rc.rrr_rounds = 2;
        for (LayerSpec& l : rc.layers) l.capacity *= capacity_scale;
        const GlobalRouter router(BinGrid(d.region, n, n), rc);
        par::set_max_threads(1);
        const RouteResult base = router.route(d);
        EXPECT_GT(base.rrr_rounds_executed, 0) << n << "x" << n;
        for (int t : {2, 3, 4, 7}) {
            par::set_max_threads(t);
            EXPECT_TRUE(route_bits(router.route(d)) == route_bits(base))
                << n << "x" << n << ": result differs at " << t << " threads";
        }
    }
}

TEST(KernelDeterminismTest, NetMovingGradient) {
    const Design d = test_design(900, 6);
    const BinGrid grid(d.region, 32, 32);
    const RouteResult rr = GlobalRouter(grid).route(d);
    CongestionField field(grid);
    field.build(rr.congestion);
    const NetMovingGradient nm;
    expect_thread_invariant([&] {
        const NetMovingResult r = nm.compute(d, rr.congestion, field);
        return std::make_tuple(r.penalty, r.num_congested_cells,
                               r.virtual_cells_created, r.multi_pin_updates,
                               r.cell_grad);
    });
}

TEST(FullFlowDeterminismTest, PlaceRouteEvalBitwiseIdentical) {
    // The acceptance gate: a small-design full flow (place -> route -> eval)
    // must produce bitwise-identical HPWL, routed WL, total overflow,
    // #DRVias, and #DRVs under RDP_THREADS = 1, 2, and 8.
    const Design input = test_design(400, 2024);
    PlacerConfig pcfg;
    pcfg.mode = PlacerMode::Ours;
    pcfg.grid_bins = 32;
    pcfg.max_wl_iters = 60;
    pcfg.stop_overflow = 0.15;
    pcfg.max_route_iters = 2;
    pcfg.inner_iters = 5;
    pcfg.router.rrr_rounds = 1;
    pcfg.dp.max_passes = 1;
    EvalConfig ecfg;
    ecfg.grid_bins = 64;
    expect_thread_invariant([&] {
        GlobalPlacer placer(pcfg);
        const PlaceResult pr = placer.place(input);
        const double hpwl = total_hpwl(pr.placed);
        const EvalMetrics m = evaluate_placement(pr.placed, ecfg);
        return std::make_tuple(hpwl, m.drwl, m.total_overflow, m.vias,
                               m.drvs);
    });
}

}  // namespace
}  // namespace rdp
