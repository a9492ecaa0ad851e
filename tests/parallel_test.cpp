// Determinism contract of the parallel execution layer: chunk plans are a
// function of the problem size only, reductions combine in fixed chunk
// order, and every parallelized kernel — WA wirelength, density, Poisson,
// global router, net-moving gradient, and the full place->route->eval flow —
// produces bitwise-identical results for RDP_THREADS = 1, 2, and 8.

#include <gtest/gtest.h>

#include <thread>
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

/// Runs `batches` batches of 0..12 tasks through one helper region and
/// checks each task ran exactly once, on a slot below width().
void expect_every_task_once(int batches, int expected_width) {
    par::with_helpers([&](par::Helpers& h) {
        EXPECT_EQ(h.width(), expected_width);
        std::vector<int> hits;
        std::vector<int> slot_ok;
        for (int b = 0; b < batches; ++b) {
            const size_t n = static_cast<size_t>(b % 13);
            hits.assign(n, 0);
            slot_ok.assign(n, 0);
            h.run(n, [&](size_t i, int slot) {
                ++hits[i];
                slot_ok[i] = slot >= 0 && slot < h.width() ? 1 : 0;
            });
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(hits[i], 1) << "batch " << b << " task " << i;
                ASSERT_EQ(slot_ok[i], 1) << "batch " << b << " task " << i;
            }
        }
    });
}

TEST(HelpersTest, RunsEveryTaskOnce) {
    ThreadGuard guard;
    par::set_max_threads(4);
    expect_every_task_once(3000, 4);
}

TEST(HelpersTest, OneThreadRunsInlineOnTheLeader) {
    ThreadGuard guard;
    par::set_max_threads(1);
    expect_every_task_once(200, 1);
    const auto leader = std::this_thread::get_id();
    par::with_helpers([&](par::Helpers& h) {
        h.run(16, [&](size_t, int slot) {
            EXPECT_EQ(slot, 0);
            EXPECT_EQ(std::this_thread::get_id(), leader);
        });
    });
}

TEST(HelpersTest, MaxWidthCapsTheRegion) {
    ThreadGuard guard;
    par::set_max_threads(4);
    const auto leader = std::this_thread::get_id();
    par::with_helpers(
        [&](par::Helpers& h) {
            EXPECT_EQ(h.width(), 1);
            h.run(16, [&](size_t, int slot) {
                EXPECT_EQ(slot, 0);
                EXPECT_EQ(std::this_thread::get_id(), leader);
            });
        },
        1);
    par::with_helpers([&](par::Helpers& h) { EXPECT_EQ(h.width(), 2); }, 2);
    par::with_helpers([&](par::Helpers& h) { EXPECT_EQ(h.width(), 4); }, 9);
}

TEST(HelpersTest, NestedRegionRunsInline) {
    ThreadGuard guard;
    par::set_max_threads(4);
    // Inside a pool region there are no helpers to be had: the region and
    // any parallel call inside it run inline, with the same results.
    par::parallel_for(4, 1, [&](size_t b, size_t e) {
        for (size_t c = b; c < e; ++c) {
            const auto me = std::this_thread::get_id();
            par::with_helpers([&](par::Helpers& h) {
                EXPECT_EQ(h.width(), 1);
                double acc = 0.0;
                h.run(8, [&](size_t i, int slot) {
                    EXPECT_EQ(slot, 0);
                    EXPECT_EQ(std::this_thread::get_id(), me);
                    acc += par::parallel_sum(
                        256, 16, [&](size_t ib, size_t ie) {
                            return static_cast<double>(ie - ib) *
                                   static_cast<double>(i + 1);
                        });
                });
                EXPECT_DOUBLE_EQ(acc, 256.0 * 36.0);
            });
        }
    });
    // A pool call from inside a helper region's tasks runs inline too.
    par::with_helpers([&](par::Helpers& h) {
        std::vector<double> sums(32, 0.0);
        h.run(sums.size(), [&](size_t i, int) {
            sums[i] = par::parallel_sum(1000, 10, [&](size_t ib, size_t ie) {
                return static_cast<double>(ie - ib);
            });
        });
        for (double v : sums) EXPECT_DOUBLE_EQ(v, 1000.0);
    });
}

TEST(HelpersTest, OversubscribedHelpersFinish) {
    ThreadGuard guard;
    // More participants than the host has cores: helpers park between
    // batches, and the leader never waits for one that has not claimed a
    // task, so this terminates instead of livelocking.
    par::set_max_threads(8);
    expect_every_task_once(3000, 8);
    std::vector<double> out(8, 0.0);
    par::with_helpers([&](par::Helpers& h) {
        for (int b = 0; b < 200; ++b) {
            h.run(out.size(), [&](size_t i, int) {
                double acc = 0.0;
                for (int k = 0; k < 20000; ++k) acc += 1e-3 * (k % 7);
                out[i] += acc;
            });
        }
    });
    for (double v : out) EXPECT_EQ(v, out[0]);
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

/// Routes `d` on an n x n grid at 1, 2, 3, 4 and 7 threads. The result
/// must be bitwise equal at every count, and the RRR waves must both
/// commit and discard speculative reroutes once there is a second thread
/// (neither at one thread). A 32x32 grid does not speculate from 4
/// threads on (GlobalRouterRoutesSmallGridsOnTheLeader below).
void expect_speculation_exact(const Design& d, int n, const RouterConfig& rc) {
    ThreadGuard guard;
    const GlobalRouter router(BinGrid(d.region, n, n), rc);
    par::set_max_threads(1);
    const RouteResult base = router.route(d);
    EXPECT_EQ(base.rrr_spec_committed, 0);
    EXPECT_EQ(base.rrr_spec_discarded, 0);
    for (int t : {2, 3, 4, 7}) {
        par::set_max_threads(t);
        const RouteResult r = router.route(d);
        EXPECT_TRUE(route_bits(r) == route_bits(base))
            << "result differs at " << t << " threads";
        EXPECT_GT(r.rrr_spec_committed, 0) << t << " threads";
        EXPECT_GT(r.rrr_spec_discarded, 0) << t << " threads";
    }
}

// Congested, but with most connections routing cleanly: a commit of one
// wave member can then push a connection between two members into
// overflow, which the commit walk must catch.
TEST(KernelDeterminismTest, GlobalRouterSpeculatesOnCongested64) {
    RouterConfig rc;
    rc.rrr_rounds = 2;
    for (LayerSpec& l : rc.layers) l.capacity *= 2.0;
    expect_speculation_exact(test_design(300, 7), 64, rc);
}

TEST(KernelDeterminismTest, GlobalRouterSpeculatesOn128) {
    RouterConfig rc;
    rc.rrr_rounds = 2;
    for (LayerSpec& l : rc.layers) l.capacity *= 3.0;
    expect_speculation_exact(test_design(300, 7), 128, rc);
}

// From 4 threads on, a 32x32 grid's share per wave member, 1024 / K
// cells, is below the 17x17 window of margin 8 that no grid edge clamps,
// so every round routes on the leader alone and nothing is speculated
// (DESIGN.md §9). At 2 threads a wave member may take 512 cells, and the
// same route still speculates.
TEST(KernelDeterminismTest, GlobalRouterRoutesSmallGridsOnTheLeader) {
    ThreadGuard guard;
    const Design d = test_design(900, 5);
    const GlobalRouter router(BinGrid(d.region, 32, 32));
    par::set_max_threads(1);
    const RouteResult base = router.route(d);
    ASSERT_GT(base.rrr_rounds_executed, 0);
    for (int t : {4, 7}) {
        par::set_max_threads(t);
        const RouteResult r = router.route(d);
        EXPECT_TRUE(route_bits(r) == route_bits(base))
            << "result differs at " << t << " threads";
        EXPECT_EQ(r.rrr_spec_committed, 0) << t << " threads";
        EXPECT_EQ(r.rrr_spec_discarded, 0) << t << " threads";
    }
    par::set_max_threads(2);
    const RouteResult two = router.route(d);
    EXPECT_TRUE(route_bits(two) == route_bits(base));
    EXPECT_GT(two.rrr_spec_committed, 0);
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
