// Kernel microbenchmarks (google-benchmark): the building blocks whose
// cost dominates the placement loop — FFT/DCT, the spectral Poisson solve,
// density evaluation, WA wirelength, net decomposition, pattern routing,
// and a full router invocation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "benchgen/generator.hpp"
#include "congestion/net_moving.hpp"
#include "congestion/rudy.hpp"
#include "density/electro_density.hpp"
#include "fft/dct.hpp"
#include "fft/fft.hpp"
#include "poisson/poisson.hpp"
#include "router/global_router.hpp"
#include "router/incremental.hpp"
#include "router/net_decompose.hpp"
#include "grid/splat_kernel.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "wirelength/hpwl.hpp"
#include "wirelength/wa_kernel.hpp"
#include "wirelength/wa_model.hpp"

namespace {

using namespace rdp;

void BM_Fft(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const FftPlan& plan = fft_plan(n);
    Rng rng(1);
    std::vector<Complex> a(static_cast<size_t>(n));
    for (auto& v : a) v = {rng.uniform(), rng.uniform()};
    for (auto _ : state) {
        auto copy = a;
        plan.forward(copy.data());
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_Fft)->Range(64, 4096)->Complexity(benchmark::oNLogN);

void BM_Dct2(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    Rng rng(2);
    std::vector<double> x(static_cast<size_t>(n));
    for (auto& v : x) v = rng.uniform();
    for (auto _ : state) {
        auto out = dct2(x);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_Dct2)->Range(64, 1024);

/// Pins the pool to one worker: kernel speed, not thread scaling.
struct OneThreadGuard {
    int saved = par::max_threads();
    OneThreadGuard() { par::set_max_threads(1); }
    ~OneThreadGuard() { par::set_max_threads(saved); }
};

GridF bench_density_grid(int n) {
    Rng rng(3);
    GridF rho(n, n);
    for (auto& v : rho) v = rng.uniform();
    return rho;
}

void BM_PoissonSolve(benchmark::State& state) {
    OneThreadGuard one;  // kernel speed, not thread scaling
    const int n = static_cast<int>(state.range(0));
    PoissonSolver solver(n, n);
    PoissonWorkspace ws;
    const GridF rho = bench_density_grid(n);
    for (auto _ : state) {
        const PoissonSolution& sol = solver.solve(rho, ws);
        benchmark::DoNotOptimize(sol.potential.data());
    }
}
BENCHMARK(BM_PoissonSolve)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// 2D pass shapes: contiguous row batch vs the two column strategies
// (blocked transpose round-trip vs the legacy strided walk). These isolate
// why the solver moved to transposes.
void BM_Dct2dRows(benchmark::State& state) {
    OneThreadGuard one;
    const int n = static_cast<int>(state.range(0));
    const GridF g = bench_density_grid(n);
    GridF work;
    DctWorkspace ws(n);
    for (auto _ : state) {
        grid_copy_into(g, work);
        for (int y = 0; y < n; ++y) ws.dct2(&work.at(0, y));
        benchmark::DoNotOptimize(work.data());
    }
}
BENCHMARK(BM_Dct2dRows)->Arg(512)->Arg(1024);

void BM_Dct2dCols(benchmark::State& state) {
    OneThreadGuard one;
    const int n = static_cast<int>(state.range(0));
    const GridF g = bench_density_grid(n);
    GridF t, work;
    DctWorkspace ws(n);
    for (auto _ : state) {
        grid_transpose_into(g, t);
        for (int y = 0; y < n; ++y) ws.dct2(&t.at(0, y));
        grid_transpose_into(t, work);
        benchmark::DoNotOptimize(work.data());
    }
}
BENCHMARK(BM_Dct2dCols)->Arg(512)->Arg(1024);

void BM_Dct2dColsStrided(benchmark::State& state) {
    OneThreadGuard one;
    const int n = static_cast<int>(state.range(0));
    const GridF g = bench_density_grid(n);
    GridF work;
    DctWorkspace ws(n);
    std::vector<double> col(static_cast<size_t>(n));
    for (auto _ : state) {
        grid_copy_into(g, work);
        for (int x = 0; x < n; ++x) {
            for (int y = 0; y < n; ++y)
                col[static_cast<size_t>(y)] = work.at(x, y);
            ws.dct2(col.data());
            for (int y = 0; y < n; ++y)
                work.at(x, y) = col[static_cast<size_t>(y)];
        }
        benchmark::DoNotOptimize(work.data());
    }
}
BENCHMARK(BM_Dct2dColsStrided)->Arg(512)->Arg(1024);

Design bench_design(int cells) {
    GeneratorConfig cfg;
    cfg.seed = 5;
    cfg.num_cells = cells;
    cfg.num_macros = 3;
    return generate_circuit(cfg);
}

void BM_DensityEvaluate(benchmark::State& state) {
    const Design d = bench_design(static_cast<int>(state.range(0)));
    const BinGrid grid(d.region, 64, 64);
    const ElectroDensity ed(grid);
    Design work = d;
    for (auto _ : state) {
        auto res = ed.evaluate(work);
        benchmark::DoNotOptimize(res.penalty);
    }
}
BENCHMARK(BM_DensityEvaluate)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_WaWirelength(benchmark::State& state) {
    const Design d = bench_design(static_cast<int>(state.range(0)));
    const WAWirelength wa(8.0);
    for (auto _ : state) {
        auto res = wa.evaluate(d);
        benchmark::DoNotOptimize(res.total);
    }
}
BENCHMARK(BM_WaWirelength)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_ManhattanMst(benchmark::State& state) {
    const int k = static_cast<int>(state.range(0));
    Rng rng(6);
    std::vector<Vec2> pts(static_cast<size_t>(k));
    for (auto& p : pts) p = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
    for (auto _ : state) {
        auto edges = manhattan_mst(pts);
        benchmark::DoNotOptimize(edges.data());
    }
}
BENCHMARK(BM_ManhattanMst)->Arg(4)->Arg(16)->Arg(64);

void BM_GlobalRoute(benchmark::State& state) {
    const Design d = bench_design(static_cast<int>(state.range(0)));
    const BinGrid grid(d.region, 64, 64);
    const GlobalRouter router(grid);
    for (auto _ : state) {
        auto rr = router.route(d);
        benchmark::DoNotOptimize(rr.wirelength_dbu);
    }
}
BENCHMARK(BM_GlobalRoute)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_NetMovingGradient(benchmark::State& state) {
    const Design d = bench_design(static_cast<int>(state.range(0)));
    const BinGrid grid(d.region, 64, 64);
    const GlobalRouter router(grid);
    const RouteResult rr = router.route(d);
    CongestionField field(grid);
    field.build(rr.congestion);
    const NetMovingGradient nm;
    for (auto _ : state) {
        auto res = nm.compute(d, rr.congestion, field);
        benchmark::DoNotOptimize(res.penalty);
    }
}
BENCHMARK(BM_NetMovingGradient)->Arg(1000)->Arg(4000);

// --- Incremental congestion-estimation benchmarks ------------------------
// Full-vs-incremental pairs emulating the routability loop's converged
// tail, where the incremental cache earns its keep: most outer iterations
// late in the loop move only a handful of cells (early iterations change
// everything and are full rebuilds in either mode, so they measure the
// same code). The generator scatters cells uniformly, which no mid-loop
// placement looks like, so the scenario first pulls each connectivity
// cluster together geometrically — the state a wirelength-driven
// placement has long reached by the time the outer loop converges. Two
// placement snapshots a handful of cells apart are then alternated every
// iteration, so each call sees a fresh "moved since last time" delta and
// the perturbed nets flip back and forth. Audits are disabled for both
// sides of each pair: the incremental-route reconciliation auditor
// recomputes demand from scratch on every call, which would measure the
// audit, not the cache.

/// Pull the generator's index-contiguous connectivity clusters together
/// on a cluster grid (emulates a converged placement; without this every
/// net spans a large fraction of the die and no estimator delta is ever
/// local). Matches GeneratorConfig::cluster_size's default.
void clusterize(Design& d, int cluster_size = 24) {
    std::vector<int> movable;
    for (int i = 0; i < d.num_cells(); ++i)
        if (d.cells[static_cast<size_t>(i)].movable()) movable.push_back(i);
    const int nc = (static_cast<int>(movable.size()) + cluster_size - 1) /
                   cluster_size;
    const int side = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(nc))));
    Rng rng(99);
    const double cw = d.region.width() / side;
    const double ch = d.region.height() / side;
    for (int c = 0; c < nc; ++c) {
        const double cx = d.region.lx + (c % side + 0.5) * cw;
        const double cy = d.region.ly + (c / side + 0.5) * ch;
        const int lo = c * cluster_size;
        const int hi = std::min((c + 1) * cluster_size,
                                static_cast<int>(movable.size()));
        for (int k = lo; k < hi; ++k) {
            Cell& cell = d.cells[static_cast<size_t>(movable[
                static_cast<size_t>(k)])];
            cell.pos = {std::clamp(cx + rng.uniform(-cw, cw) * 0.45,
                                   d.region.lx, d.region.hx),
                        std::clamp(cy + rng.uniform(-ch, ch) * 0.45,
                                   d.region.ly, d.region.hy)};
        }
    }
}

/// Two placement snapshots of one clusterized design, `moves` cells
/// apart, with O(cells) switching between them. `local_only` restricts
/// the moved cells to ones whose nets all stay within `local_extent` of
/// the die (the regime of the paper's local congestion mitigation: a net
/// with a die-crossing escape pin invalidates a die-sized region by
/// construction, in which case an exact incremental update rightly
/// degenerates to a full one).
struct LoopScenario {
    Design d;
    std::vector<Vec2> pos_a, pos_b;

    explicit LoopScenario(int cells, int moves = 8, bool local_only = false,
                          double local_extent = 0.125)
        : d(bench_design(cells)) {
        clusterize(d);
        pos_a.resize(d.cells.size());
        for (size_t i = 0; i < d.cells.size(); ++i) pos_a[i] = d.cells[i].pos;
        pos_b = pos_a;
        std::vector<unsigned char> global_cell(d.cells.size(), 0);
        if (local_only) {
            const double mx = local_extent * d.region.width();
            const double my = local_extent * d.region.height();
            for (const Net& net : d.nets) {
                if (net.pins.empty()) continue;
                Vec2 lo = d.pin_position(net.pins.front());
                Vec2 hi = lo;
                for (int p : net.pins) {
                    const Vec2 pp = d.pin_position(p);
                    lo = {std::min(lo.x, pp.x), std::min(lo.y, pp.y)};
                    hi = {std::max(hi.x, pp.x), std::max(hi.y, pp.y)};
                }
                if (hi.x - lo.x <= mx && hi.y - lo.y <= my) continue;
                for (int p : net.pins)
                    global_cell[static_cast<size_t>(
                        d.pins[static_cast<size_t>(p)].cell)] = 1;
            }
        }
        std::vector<int> movable;
        for (int i = 0; i < d.num_cells(); ++i)
            if (d.cells[static_cast<size_t>(i)].movable() &&
                !global_cell[static_cast<size_t>(i)])
                movable.push_back(i);
        Rng rng(17);
        const double dx = 0.02 * d.region.width();
        const double dy = 0.02 * d.region.height();
        for (int k = 0; k < moves; ++k) {
            const size_t ci = static_cast<size_t>(movable[static_cast<size_t>(
                rng.uniform_int(0, static_cast<int>(movable.size()) - 1))]);
            pos_b[ci] = {std::clamp(pos_a[ci].x + rng.uniform(-dx, dx),
                                    d.region.lx, d.region.hx),
                         std::clamp(pos_a[ci].y + rng.uniform(-dy, dy),
                                    d.region.ly, d.region.hy)};
        }
    }

    void apply(bool b) {
        const std::vector<Vec2>& p = b ? pos_b : pos_a;
        for (size_t i = 0; i < d.cells.size(); ++i) d.cells[i].pos = p[i];
    }
};

/// Disables runtime audits for one benchmark run, restoring them after.
struct AuditOffGuard {
    bool saved = audit_enabled();
    AuditOffGuard() { set_audit_enabled(false); }
    ~AuditOffGuard() { set_audit_enabled(saved); }
};

/// One-RRR-round router config with layer capacities scaled so the
/// clusterized synthetic is routable (near-zero overflow), as the loop's
/// inflation has achieved by its converged tail. At the generator's raw
/// density the maze fallback grinds through a hopeless 20k+-overflow map
/// for ~1s per round in *both* modes, hiding everything else under a
/// constant.
RouterConfig loop_router_config() {
    RouterConfig cfg;
    cfg.rrr_rounds = 1;
    for (LayerSpec& l : cfg.layers) l.capacity *= 4.0;
    return cfg;
}

void BM_RoutabilityLoopRouteFull(benchmark::State& state) {
    AuditOffGuard audits;
    LoopScenario sc(static_cast<int>(state.range(0)));
    const BinGrid grid(sc.d.region, 64, 64);
    const GlobalRouter router(grid, loop_router_config());
    bool flip = false;
    for (auto _ : state) {
        sc.apply(flip);
        flip = !flip;
        auto rr = router.route(sc.d);
        benchmark::DoNotOptimize(rr.total_overflow);
    }
}
BENCHMARK(BM_RoutabilityLoopRouteFull)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_RoutabilityLoopRouteIncremental(benchmark::State& state) {
    AuditOffGuard audits;
    LoopScenario sc(static_cast<int>(state.range(0)));
    const BinGrid grid(sc.d.region, 64, 64);
    const GlobalRouter router(grid, loop_router_config());
    IncrementalRouteState inc;
    sc.apply(false);
    (void)router.route(sc.d, &inc);  // warm the cache outside the timing
    const IncrementalRouteStats warm = inc.stats;
    bool flip = true;
    for (auto _ : state) {
        sc.apply(flip);
        flip = !flip;
        auto rr = router.route(sc.d, &inc);
        benchmark::DoNotOptimize(rr.total_overflow);
    }
    const long long calls = inc.stats.calls - warm.calls;
    const long long total = inc.stats.conns_total - warm.conns_total;
    const long long hits = inc.stats.cache_hits - warm.cache_hits;
    const long long rerouted = inc.stats.conns_rerouted - warm.conns_rerouted;
    const long long nets = inc.stats.nets_rerouted - warm.nets_rerouted;
    state.counters["cache_hit_rate"] =
        total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                  : 0.0;
    state.counters["conns_rerouted_per_iter"] =
        calls > 0 ? static_cast<double>(rerouted) / static_cast<double>(calls)
                  : 0.0;
    state.counters["nets_rerouted_per_iter"] =
        calls > 0 ? static_cast<double>(nets) / static_cast<double>(calls)
                  : 0.0;
}
BENCHMARK(BM_RoutabilityLoopRouteIncremental)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_RudyCongestionFull(benchmark::State& state) {
    AuditOffGuard audits;
    LoopScenario sc(static_cast<int>(state.range(0)), 8, true);
    const BinGrid grid(sc.d.region, 64, 64);
    bool flip = false;
    for (auto _ : state) {
        sc.apply(flip);
        flip = !flip;
        auto cmap = rudy_congestion(sc.d, grid);
        benchmark::DoNotOptimize(cmap.demand().data());
    }
}
BENCHMARK(BM_RudyCongestionFull)->Arg(4000)->Arg(16000);

void BM_RudyCongestionIncremental(benchmark::State& state) {
    AuditOffGuard audits;
    LoopScenario sc(static_cast<int>(state.range(0)), 8, true);
    const BinGrid grid(sc.d.region, 64, 64);
    IncrementalRudyState inc;
    sc.apply(false);
    (void)rudy_congestion(sc.d, grid, {}, {}, &inc);  // warm
    const IncrementalRudyStats warm = inc.stats;
    bool flip = true;
    for (auto _ : state) {
        sc.apply(flip);
        flip = !flip;
        auto cmap = rudy_congestion(sc.d, grid, {}, {}, &inc);
        benchmark::DoNotOptimize(cmap.demand().data());
    }
    const long long calls = inc.stats.calls - warm.calls;
    const long long bins = inc.stats.bins_recomputed - warm.bins_recomputed;
    state.counters["bins_recomputed_per_iter"] =
        calls > 0 ? static_cast<double>(bins) / static_cast<double>(calls)
                  : 0.0;
}
BENCHMARK(BM_RudyCongestionIncremental)->Arg(4000)->Arg(16000);

// --- Thread-scaling benchmarks -------------------------------------------
// The parallel execution layer guarantees bitwise-identical results for any
// thread count, so these measure pure speedup. Arg = worker count; run on a
// >= 4-core host to see the scaling curve (on fewer cores the higher counts
// just oversubscribe). `run_benches.sh` records the 1/2/4/8 sweep.

/// Pins the worker count for one benchmark run, restoring it afterwards.
struct ThreadArgGuard {
    int saved = par::max_threads();
    explicit ThreadArgGuard(benchmark::State& state) {
        par::set_max_threads(static_cast<int>(state.range(0)));
    }
    ~ThreadArgGuard() { par::set_max_threads(saved); }
};

void BM_WaGradientThreads(benchmark::State& state) {
    ThreadArgGuard threads(state);
    const Design d = bench_design(16000);
    const WAWirelength wa(8.0);
    for (auto _ : state) {
        auto res = wa.evaluate(d);
        benchmark::DoNotOptimize(res.total);
    }
}
BENCHMARK(BM_WaGradientThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DensityScatterThreads(benchmark::State& state) {
    ThreadArgGuard threads(state);
    const Design d = bench_design(16000);
    const BinGrid grid(d.region, 64, 64);
    const ElectroDensity ed(grid);
    for (auto _ : state) {
        auto rho = ed.movable_density(d);
        benchmark::DoNotOptimize(rho.data());
    }
}
BENCHMARK(BM_DensityScatterThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RouterRrrRoundThreads(benchmark::State& state) {
    ThreadArgGuard threads(state);
    const Design d = bench_design(4000);
    const BinGrid grid(d.region, 64, 64);
    RouterConfig cfg;
    cfg.rrr_rounds = 1;
    const GlobalRouter router(grid, cfg);
    for (auto _ : state) {
        auto rr = router.route(d);
        benchmark::DoNotOptimize(rr.total_overflow);
    }
}
BENCHMARK(BM_RouterRrrRoundThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- SIMD kernel benchmarks ----------------------------------------------
// Single-thread cost of the vectorized hot kernels (DESIGN.md §14) on the
// backend this binary was built for.

/// A batch of WA "nets" with placement-realistic degree mix.
struct WaBatch {
    std::vector<double> xs;        ///< flat coordinates
    std::vector<size_t> offsets;   ///< net i: [offsets[i], offsets[i+1])
    std::vector<double> wp, wm, grad;

    explicit WaBatch(int nets) {
        Rng rng(77);
        const int degrees[] = {2, 3, 3, 4, 5, 8, 16, 33, 64};
        offsets.push_back(0);
        for (int i = 0; i < nets; ++i) {
            const int deg = degrees[static_cast<size_t>(i) % 9];
            for (int j = 0; j < deg; ++j)
                xs.push_back(rng.uniform(0.0, 1000.0));
            offsets.push_back(xs.size());
        }
        wp.resize(wa::padded_size(xs.size()));
        wm.resize(wp.size());
        grad.resize(xs.size());
    }
};

void BM_SimdWa(benchmark::State& state) {
    WaBatch b(static_cast<int>(state.range(0)));
    // Per-net scratch at offset 0 like production (padded per call).
    std::vector<double> wp(wa::padded_size(70)), wm(wp.size());
    for (auto _ : state) {
        double total = 0.0;
        for (size_t i = 0; i + 1 < b.offsets.size(); ++i) {
            const size_t o = b.offsets[i], n = b.offsets[i + 1] - o;
            total += wa::wa_1d_core<simd::VecD>(b.xs.data() + o, n, 8.0,
                                                wp.data(), wm.data(),
                                                b.grad.data() + o);
        }
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_SimdWa)->Arg(2048);

/// Random rects over a 256x256 grid with row spans up to ~32 bins — the
/// shape of density footprints (few bins) through RUDY boxes (wide).
struct SplatBatch {
    BinGrid grid{Rect{0.0, 0.0, 1024.0, 1024.0}, 256, 256};
    std::vector<Rect> rects;
    std::vector<double> scales;

    explicit SplatBatch(int count) {
        Rng rng(78);
        for (int i = 0; i < count; ++i) {
            const double w = rng.uniform(2.0, 128.0);
            const double h = rng.uniform(2.0, 128.0);
            const double x0 = rng.uniform(-16.0, 1024.0 - w + 16.0);
            const double y0 = rng.uniform(-16.0, 1024.0 - h + 16.0);
            rects.push_back({x0, y0, x0 + w, y0 + h});
            scales.push_back(rng.uniform(0.1, 2.0));
        }
    }
};

void BM_SimdScatter(benchmark::State& state) {
    SplatBatch b(static_cast<int>(state.range(0)));
    GridF g = b.grid.make_grid();
    for (auto _ : state) {
        for (size_t i = 0; i < b.rects.size(); ++i)
            splat_rect<simd::VecD>(b.grid, g, b.rects[i], b.scales[i]);
        benchmark::DoNotOptimize(g.data());
    }
}
BENCHMARK(BM_SimdScatter)->Arg(4096);

void BM_SimdGather(benchmark::State& state) {
    SplatBatch b(static_cast<int>(state.range(0)));
    Rng rng(79);
    GridF pot = b.grid.make_grid(), fx = b.grid.make_grid(),
          fy = b.grid.make_grid();
    for (auto& v : pot.raw()) v = rng.uniform(-1.0, 1.0);
    for (auto& v : fx.raw()) v = rng.uniform(-1.0, 1.0);
    for (auto& v : fy.raw()) v = rng.uniform(-1.0, 1.0);
    for (auto _ : state) {
        double acc = 0.0;
        for (size_t i = 0; i < b.rects.size(); ++i) {
            const GatherAcc a = gather_rect<simd::VecD, true>(
                b.grid, pot, fx, fy, b.rects[i], b.scales[i]);
            acc += a.psi + a.ex + a.ey;
        }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_SimdGather)->Arg(4096);

void BM_SimdFft(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    const FftPlan& plan = fft_plan(n);
    Rng rng(80);
    std::vector<Complex> a(static_cast<size_t>(n));
    for (auto& v : a) v = {rng.uniform(), rng.uniform()};
    std::vector<Complex> work(a.size());
    for (auto _ : state) {
        work = a;
        plan.forward(work.data());
        benchmark::DoNotOptimize(work.data());
    }
}
BENCHMARK(BM_SimdFft)->Arg(1024);

void BM_SimdDct(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    DctWorkspace ws(n);
    Rng rng(81);
    std::vector<double> x(static_cast<size_t>(n));
    for (auto& v : x) v = rng.uniform();
    std::vector<double> work(x.size());
    for (auto _ : state) {
        work = x;
        ws.dct2(work.data());
        benchmark::DoNotOptimize(work.data());
    }
}
BENCHMARK(BM_SimdDct)->Arg(1024);

/// RUDY per-bin accumulation: net boxes/densities deposited with the
/// vectorized row kernel.
struct RudyBatch {
    Design d;
    BinGrid grid;
    std::vector<Rect> bbs;
    std::vector<double> dens;

    explicit RudyBatch(int cells) : d(bench_design(cells)), grid(d.region, 64, 64) {
        const RudyConfig cfg;
        const double mean_extent = 0.5 * (grid.bin_w() + grid.bin_h());
        for (const Net& net : d.nets) {
            if (net.degree() < 2 || net.degree() > cfg.max_degree) continue;
            Rect bb = net_bbox(d, net);
            if (bb.width() < grid.bin_w())
                bb = Rect::from_center(bb.center(), grid.bin_w(), bb.height());
            if (bb.height() < grid.bin_h())
                bb = Rect::from_center(bb.center(), bb.width(), grid.bin_h());
            const double wl = bb.width() + bb.height();
            const double area = bb.area();
            bbs.push_back(bb);
            dens.push_back(area > 0.0 ? net.weight * wl / (area * mean_extent)
                                      : 0.0);
        }
    }
};

void BM_SimdRudy(benchmark::State& state) {
    RudyBatch b(static_cast<int>(state.range(0)));
    GridF g = b.grid.make_grid();
    for (auto _ : state) {
        for (size_t i = 0; i < b.bbs.size(); ++i)
            splat_rect<simd::VecD>(b.grid, g, b.bbs[i], b.dens[i]);
        benchmark::DoNotOptimize(g.data());
    }
}
BENCHMARK(BM_SimdRudy)->Arg(4000);

}  // namespace

int main(int argc, char** argv) {
    // Records which SIMD backend ("avx2" / "neon" / "scalar") produced the
    // numbers in the benchmark context block.
    benchmark::AddCustomContext("rdp_simd", rdp::simd::backend_name());
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
