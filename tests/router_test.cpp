// Tests for the global routing substrate: net decomposition, pattern
// routing, layer assignment, and the full router's accounting invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "benchgen/generator.hpp"
#include "router/global_router.hpp"
#include "router/layer_assign.hpp"
#include "router/maze_route.hpp"
#include "router/net_decompose.hpp"
#include "router/pattern_route.hpp"
#include "util/rng.hpp"

namespace rdp {
namespace {

TEST(MstTest, EdgeCountAndConnectivity) {
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = rng.uniform_int(2, 30);
        std::vector<Vec2> pts(static_cast<size_t>(n));
        for (auto& p : pts) p = {rng.uniform(0, 100), rng.uniform(0, 100)};
        const auto edges = manhattan_mst(pts);
        ASSERT_EQ(edges.size(), static_cast<size_t>(n - 1));
        // Union-find connectivity check.
        std::vector<int> parent(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) parent[i] = i;
        std::function<int(int)> find = [&](int x) {
            return parent[x] == x ? x : parent[x] = find(parent[x]);
        };
        for (const auto& [a, b] : edges) parent[find(a)] = find(b);
        for (int i = 1; i < n; ++i) EXPECT_EQ(find(0), find(i));
    }
}

TEST(MstTest, TrivialCases) {
    EXPECT_TRUE(manhattan_mst({}).empty());
    EXPECT_TRUE(manhattan_mst({{1, 1}}).empty());
    const auto e = manhattan_mst({{0, 0}, {3, 4}});
    ASSERT_EQ(e.size(), 1u);
    EXPECT_DOUBLE_EQ(mst_length({{0, 0}, {3, 4}}), 7.0);
}

TEST(MstTest, ShorterThanStar) {
    // MST length <= star topology from any hub.
    Rng rng(8);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<Vec2> pts;
        for (int i = 0; i < 12; ++i)
            pts.push_back({rng.uniform(0, 50), rng.uniform(0, 50)});
        double star = 0.0;
        for (size_t i = 1; i < pts.size(); ++i)
            star += std::abs(pts[i].x - pts[0].x) +
                    std::abs(pts[i].y - pts[0].y);
        EXPECT_LE(mst_length(pts), star + 1e-9);
    }
}

TEST(MstTest, CollinearChain) {
    const std::vector<Vec2> pts = {{0, 0}, {10, 0}, {20, 0}, {30, 0}};
    EXPECT_DOUBLE_EQ(mst_length(pts), 30.0);
}

class PatternRouteTest : public ::testing::Test {
protected:
    void SetUp() override {
        cost_h_ = GridF(16, 16, 1.0);
        cost_v_ = GridF(16, 16, 1.0);
        model_ = {&cost_h_, &cost_v_, 1.0};
    }
    GridF cost_h_, cost_v_;
    RouteCostModel model_;
};

/// Every consecutive pair of spans must share a corner: the first span ends
/// where the next begins (offset by one cell in the new direction).
void expect_contiguous(const RoutePath& p, int x0, int y0, int x1, int y1) {
    ASSERT_FALSE(p.segs.empty());
    EXPECT_EQ(p.segs.front().x0, x0);
    EXPECT_EQ(p.segs.front().y0, y0);
    EXPECT_EQ(p.segs.back().x1, x1);
    EXPECT_EQ(p.segs.back().y1, y1);
    for (size_t i = 0; i + 1 < p.segs.size(); ++i) {
        const RouteSeg& a = p.segs[i];
        const RouteSeg& b = p.segs[i + 1];
        const int dx = std::abs(b.x0 - a.x1);
        const int dy = std::abs(b.y0 - a.y1);
        EXPECT_EQ(dx + dy, 1) << "gap between spans " << i << " and " << i + 1;
    }
}

TEST_F(PatternRouteTest, DegenerateSameCell) {
    const RoutePath p = pattern_route(3, 3, 3, 3, model_);
    ASSERT_EQ(p.segs.size(), 1u);
    EXPECT_EQ(p.num_bends(), 0);
    EXPECT_EQ(p.total_cells(), 1);
}

TEST_F(PatternRouteTest, StraightLines) {
    const RoutePath h = pattern_route(2, 5, 9, 5, model_);
    ASSERT_EQ(h.segs.size(), 1u);
    EXPECT_TRUE(h.segs[0].horizontal());
    EXPECT_EQ(h.total_cells(), 8);
    const RoutePath v = pattern_route(4, 1, 4, 12, model_);
    ASSERT_EQ(v.segs.size(), 1u);
    EXPECT_FALSE(v.segs[0].horizontal());
}

TEST_F(PatternRouteTest, LShapeWhenUniform) {
    const RoutePath p = pattern_route(1, 1, 8, 6, model_);
    expect_contiguous(p, 1, 1, 8, 6);
    // With uniform costs an L (one bend) is optimal (fewer via costs).
    EXPECT_EQ(p.num_bends(), 1);
    // Cells covered exactly once: 8 in the horizontal span (x=1..8) plus
    // 5 in the vertical span (y=2..6; the corner is not double-counted).
    EXPECT_EQ(p.total_cells(), 8 + 5);
}

TEST_F(PatternRouteTest, ZShapeAvoidsExpensiveCorner) {
    // Make both L corners very expensive; a Z through the middle wins.
    for (int x = 0; x < 16; ++x) {
        cost_h_.at(x, 1) = 50.0;  // first row horizontal expensive
        cost_h_.at(x, 6) = 50.0;  // last row horizontal expensive
    }
    const RoutePath p = pattern_route(1, 1, 8, 6, model_, 16);
    expect_contiguous(p, 1, 1, 8, 6);
    EXPECT_EQ(p.num_bends(), 2);  // HVH or VHV
}

TEST_F(PatternRouteTest, PicksCheaperL) {
    // Block the horizontal-first corridor; vertical-first L must win.
    for (int x = 0; x < 16; ++x) cost_h_.at(x, 2) = 100.0;
    const RoutePath p = pattern_route(1, 2, 10, 9, model_, 0);
    ASSERT_EQ(p.segs.size(), 2u);
    EXPECT_FALSE(p.segs[0].horizontal());  // vertical first
}

TEST_F(PatternRouteTest, PathCostAccounting) {
    RoutePath p;
    p.segs.push_back(hseg(0, 0, 3));
    p.segs.push_back(vseg(3, 1, 4));
    cost_h_.fill(2.0);
    cost_v_.fill(3.0);
    // 4 horizontal cells * 2 + 4 vertical cells * 3 + 1 bend * via.
    EXPECT_DOUBLE_EQ(path_cost(p, model_), 8.0 + 12.0 + 1.0);
}

TEST(LayerAssignTest, WaterFillingAndOverflowConservation) {
    const std::vector<LayerSpec> specs = {
        {Orient::Horizontal, 4.0},
        {Orient::Vertical, 4.0},
        {Orient::Horizontal, 2.0},
        {Orient::Vertical, 2.0},
    };
    GridF dh(2, 1), dv(2, 1), bv(2, 1), pv(2, 1);
    dh.at(0, 0) = 3.0;   // fits on the first H layer
    dh.at(1, 0) = 10.0;  // overflows the stack: 4 + 6 (rest on top H layer)
    dv.at(0, 0) = 5.0;   // 4 + 1
    const LayerAssignment la = assign_layers(specs, dh, dv, bv, pv);
    EXPECT_DOUBLE_EQ(la.demand[0].at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(la.demand[2].at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(la.demand[0].at(1, 0), 4.0);
    EXPECT_DOUBLE_EQ(la.demand[2].at(1, 0), 6.0);
    EXPECT_DOUBLE_EQ(la.demand[1].at(0, 0), 4.0);
    EXPECT_DOUBLE_EQ(la.demand[3].at(0, 0), 1.0);
    // Layer-summed demand equals the 2D input everywhere.
    const GridF sum = la.demand_2d();
    EXPECT_DOUBLE_EQ(sum.at(0, 0), 8.0);
    EXPECT_DOUBLE_EQ(sum.at(1, 0), 10.0);
}

TEST(LayerAssignTest, ViaCounting) {
    const std::vector<LayerSpec> specs = {{Orient::Horizontal, 8.0},
                                          {Orient::Vertical, 8.0}};
    GridF dh(1, 1), dv(1, 1), bv(1, 1), pv(1, 1);
    bv.at(0, 0) = 3.0;
    pv.at(0, 0) = 7.0;
    const LayerAssignment la = assign_layers(specs, dh, dv, bv, pv);
    EXPECT_EQ(la.total_vias, 10);
}


class MazeRouteTest : public ::testing::Test {
protected:
    void SetUp() override {
        cost_h_ = GridF(24, 24, 1.0);
        cost_v_ = GridF(24, 24, 1.0);
        model_ = {&cost_h_, &cost_v_, 1.0};
    }
    GridF cost_h_, cost_v_;
    RouteCostModel model_;
};

TEST_F(MazeRouteTest, StraightLineOnUniformCosts) {
    const RoutePath p = maze_route(2, 5, 9, 5, model_);
    EXPECT_DOUBLE_EQ(path_cost(p, model_),
                     path_cost(pattern_route(2, 5, 9, 5, model_), model_));
    expect_contiguous(p, 2, 5, 9, 5);
}

TEST_F(MazeRouteTest, DetoursAroundWall) {
    // A near-impassable wall with one gap, placed so that every L and Z
    // between the endpoints crosses it except through the gap at y = 17
    // (outside the endpoints' bounding box -> patterns cannot use it, but
    // inside the maze window of margin 8).
    for (int y = 0; y < 24; ++y) {
        if (y == 17) continue;
        cost_h_.at(12, y) = 1000.0;
        cost_v_.at(12, y) = 1000.0;
    }
    const RoutePath pattern = pattern_route(4, 10, 20, 10, model_, 16);
    const RoutePath maze = maze_route(4, 10, 20, 10, model_);
    expect_contiguous(maze, 4, 10, 20, 10);
    EXPECT_LT(path_cost(maze, model_), path_cost(pattern, model_));
    EXPECT_LT(path_cost(maze, model_), 100.0);  // through the gap
}

TEST_F(MazeRouteTest, NeverWorseThanPatterns) {
    // Property: the maze search space contains every L/Z, so its cost is
    // never higher.
    Rng rng(17);
    for (int trial = 0; trial < 25; ++trial) {
        for (auto& v : cost_h_) v = rng.uniform(0.5, 8.0);
        for (auto& v : cost_v_) v = rng.uniform(0.5, 8.0);
        const int x0 = rng.uniform_int(0, 23), y0 = rng.uniform_int(0, 23);
        const int x1 = rng.uniform_int(0, 23), y1 = rng.uniform_int(0, 23);
        const RoutePath pat = pattern_route(x0, y0, x1, y1, model_, 16);
        const RoutePath mz = maze_route(x0, y0, x1, y1, model_);
        EXPECT_LE(path_cost(mz, model_), path_cost(pat, model_) + 1e-9)
            << "(" << x0 << "," << y0 << ")->(" << x1 << "," << y1 << ")";
        expect_contiguous(mz, x0, y0, x1, y1);
    }
}

TEST_F(MazeRouteTest, WindowClampsSearch) {
    MazeConfig cfg;
    cfg.window_margin = 0;  // search restricted to the endpoints' bbox
    const RoutePath p = maze_route(3, 3, 10, 8, model_, cfg);
    expect_contiguous(p, 3, 3, 10, 8);
    for (const RouteSeg& s : p.segs) {
        EXPECT_GE(std::min(s.x0, s.x1), 3);
        EXPECT_LE(std::max(s.x0, s.x1), 10);
        EXPECT_GE(std::min(s.y0, s.y1), 3);
        EXPECT_LE(std::max(s.y0, s.y1), 8);
    }
}

/// The exactness of speculative rip-up-and-reroute (DESIGN.md §9) rests on
/// this property: routed on a copy of its maze window with translated
/// endpoints, a connection gets the translated full-grid route and cost,
/// bit for bit. Rectangular grid, so a swapped axis cannot hide.
class WindowTranslationTest : public ::testing::Test {
protected:
    static constexpr int kNx = 40, kNy = 32;
    GridF cost_h_{kNx, kNy, 1.0};
    GridF cost_v_{kNx, kNy, 1.0};

    static GridF crop(const GridF& g, const CellWindow& w) {
        GridF out(w.width(), w.height());
        for (int y = 0; y < w.height(); ++y)
            for (int x = 0; x < w.width(); ++x)
                out.at(x, y) = g.at(w.x0 + x, w.y0 + y);
        return out;
    }

    static RoutePath shifted(RoutePath p, int dx, int dy) {
        for (RouteSeg& s : p.segs) {
            s.x0 += dx;
            s.x1 += dx;
            s.y0 += dy;
            s.y1 += dy;
        }
        return p;
    }

    static void expect_same(const RoutePath& a, const RoutePath& b) {
        ASSERT_EQ(a.segs.size(), b.segs.size());
        for (size_t i = 0; i < a.segs.size(); ++i) {
            const RouteSeg &s = a.segs[i], &t = b.segs[i];
            EXPECT_TRUE(s.x0 == t.x0 && s.y0 == t.y0 && s.x1 == t.x1 &&
                        s.y1 == t.y1 && s.dir == t.dir)
                << "span " << i;
        }
    }

    CellWindow expect_exact(int x0, int y0, int x1, int y1,
                            const MazeConfig& cfg = {}) {
        SCOPED_TRACE(::testing::Message() << "(" << x0 << "," << y0 << ")->("
                                          << x1 << "," << y1 << ")");
        const CellWindow w = maze_window(x0, y0, x1, y1, kNx, kNy, cfg);
        const GridF lh = crop(cost_h_, w), lv = crop(cost_v_, w);
        const RouteCostModel full{&cost_h_, &cost_v_, 1.0};
        const RouteCostModel local{&lh, &lv, 1.0};
        const int ax = x0 - w.x0, ay = y0 - w.y0;
        const int bx = x1 - w.x0, by = y1 - w.y0;

        const RoutePath mz = maze_route(x0, y0, x1, y1, full, cfg);
        const RoutePath mz_local = maze_route(ax, ay, bx, by, local, cfg);
        expect_same(mz, shifted(mz_local, w.x0, w.y0));
        EXPECT_EQ(path_cost(mz, full), path_cost(mz_local, local));

        PatternScratch ps;
        RoutePath pat, pat_local;
        pattern_route_into(x0, y0, x1, y1, full, 12, ps, pat);
        pattern_route_into(ax, ay, bx, by, local, 12, ps, pat_local);
        expect_same(pat, shifted(pat_local, w.x0, w.y0));
        EXPECT_EQ(path_cost(pat, full), path_cost(pat_local, local));
        return w;
    }
};

TEST_F(WindowTranslationTest, TieHeavyUniformCosts) {
    Rng rng(31);
    for (int trial = 0; trial < 40; ++trial) {
        expect_exact(rng.uniform_int(0, kNx - 1), rng.uniform_int(0, kNy - 1),
                     rng.uniform_int(0, kNx - 1), rng.uniform_int(0, kNy - 1));
    }
    // Few distinct values: ties between unequal paths as well.
    for (auto& v : cost_h_) v = rng.uniform_int(1, 3);
    for (auto& v : cost_v_) v = rng.uniform_int(1, 3);
    for (int trial = 0; trial < 40; ++trial) {
        expect_exact(rng.uniform_int(0, kNx - 1), rng.uniform_int(0, kNy - 1),
                     rng.uniform_int(0, kNx - 1), rng.uniform_int(0, kNy - 1));
    }
}

TEST_F(WindowTranslationTest, RandomCosts) {
    Rng rng(37);
    MazeConfig narrow;
    narrow.window_margin = 3;
    for (int trial = 0; trial < 40; ++trial) {
        for (auto& v : cost_h_) v = rng.uniform(0.5, 8.0);
        for (auto& v : cost_v_) v = rng.uniform(0.5, 8.0);
        const int x0 = rng.uniform_int(0, kNx - 1);
        const int y0 = rng.uniform_int(0, kNy - 1);
        const int x1 = rng.uniform_int(0, kNx - 1);
        const int y1 = rng.uniform_int(0, kNy - 1);
        expect_exact(x0, y0, x1, y1);
        expect_exact(x0, y0, x1, y1, narrow);
    }
}

TEST_F(WindowTranslationTest, WindowsClampedAtEveryEdge) {
    Rng rng(41);
    for (auto& v : cost_h_) v = rng.uniform(0.5, 8.0);
    for (auto& v : cost_v_) v = rng.uniform(0.5, 8.0);
    // Interior window first, then one clamped at each edge in turn.
    const CellWindow mid = expect_exact(15, 12, 22, 17);
    EXPECT_TRUE(mid.x0 > 0 && mid.y0 > 0 && mid.x1 < kNx - 1 &&
                mid.y1 < kNy - 1);
    const CellWindow left = expect_exact(2, 12, 9, 18);
    EXPECT_EQ(left.x0, 0);
    EXPECT_GT(left.x1, 9);
    const CellWindow right = expect_exact(kNx - 8, 11, kNx - 2, 16);
    EXPECT_EQ(right.x1, kNx - 1);
    EXPECT_LT(right.x0, kNx - 8);
    const CellWindow bottom = expect_exact(14, 1, 20, 6);
    EXPECT_EQ(bottom.y0, 0);
    EXPECT_GT(bottom.y1, 6);
    const CellWindow top = expect_exact(13, kNy - 6, 19, kNy - 1);
    EXPECT_EQ(top.y1, kNy - 1);
    EXPECT_LT(top.y0, kNy - 6);
    // All four at once.
    const CellWindow all = expect_exact(1, kNy - 2, kNx - 2, 1);
    EXPECT_TRUE(all.x0 == 0 && all.y0 == 0 && all.x1 == kNx - 1 &&
                all.y1 == kNy - 1);
}

TEST(GlobalRouterTest, MazeFallbackReducesOverflow) {
    GeneratorConfig cfg;
    cfg.name = "congested";
    cfg.seed = 77;
    cfg.num_cells = 800;
    cfg.utilization = 0.85;
    const Design d = generate_circuit(cfg);
    const BinGrid grid(d.region, 32, 32);
    RouterConfig with, without;
    with.maze_fallback = true;
    without.maze_fallback = false;
    const RouteResult a = GlobalRouter(grid, with).route(d);
    const RouteResult b = GlobalRouter(grid, without).route(d);
    // Maze escalation is locally optimal per connection; on a uniformly
    // overloaded design the global overflow lands within a whisker of the
    // pattern-only result (and usually below). Guard against regressions.
    EXPECT_LE(a.total_overflow, b.total_overflow * 1.01 + 1e-9);
    EXPECT_LE(a.wirelength_dbu, b.wirelength_dbu * 1.05);
}

Design routed_design(int cells, uint64_t seed) {
    GeneratorConfig cfg;
    cfg.name = "route-test";
    cfg.seed = seed;
    cfg.num_cells = cells;
    cfg.num_macros = 2;
    cfg.utilization = 0.7;
    return generate_circuit(cfg);
}

TEST(GlobalRouterTest, CapacityMapsRespectBlockages) {
    const Design d = routed_design(600, 21);
    const BinGrid grid(d.region, 32, 32);
    GlobalRouter router(grid);
    GridF cap_h, cap_v;
    router.build_capacity(d, cap_h, cap_v);
    double base_h = 0.0;
    for (const LayerSpec& l : router.effective_layers())
        if (l.dir == Orient::Horizontal) base_h += l.capacity;
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            EXPECT_GE(cap_h.at(x, y), router.config().min_capacity);
            EXPECT_LE(cap_h.at(x, y), base_h + 1e-9);
        }
    }
    // Bins over a macro have reduced capacity.
    const auto macros = d.macro_cells();
    ASSERT_FALSE(macros.empty());
    const GridIndex g = grid.index_of(d.cells[macros[0]].pos);
    EXPECT_LT(cap_v.at(g.ix, g.iy), 0.9 * base_h);
}

TEST(GlobalRouterTest, DemandAccountingConsistent) {
    const Design d = routed_design(500, 22);
    const BinGrid grid(d.region, 32, 32);
    GlobalRouter router(grid);
    const RouteResult rr = router.route(d);
    // Total 2D demand = wire demand + weighted via events.
    const double wire = grid_sum(rr.demand_h) + grid_sum(rr.demand_v);
    const double vias =
        grid_sum(rr.bend_vias) + grid_sum(rr.pin_vias);
    EXPECT_NEAR(grid_sum(rr.congestion.demand()),
                wire + router.config().via_demand_weight * vias, 1e-6);
    // Every pin contributes one pin via.
    EXPECT_NEAR(grid_sum(rr.pin_vias), d.num_pins(), 1e-9);
    // Wirelength is positive and bounded below by MST length scale.
    EXPECT_GT(rr.wirelength_dbu, 0.0);
    EXPECT_GT(rr.num_vias, 0);
}


TEST(GlobalRouterTest, RoutingBlockagesReduceCapacity) {
    Design d = routed_design(200, 33);
    const BinGrid grid(d.region, 16, 16);
    GlobalRouter router(grid);
    GridF ch0, cv0;
    router.build_capacity(d, ch0, cv0);
    // Fully cover one G-cell with a blockage.
    d.routing_blockages.push_back(grid.bin_box(5, 5));
    GridF ch1, cv1;
    router.build_capacity(d, ch1, cv1);
    EXPECT_LT(ch1.at(5, 5), 0.5 * ch0.at(5, 5));
    EXPECT_LT(cv1.at(5, 5), 0.5 * cv0.at(5, 5));
    // Far-away cells unchanged.
    EXPECT_DOUBLE_EQ(ch1.at(12, 12), ch0.at(12, 12));
}

TEST(GlobalRouterTest, Deterministic) {
    const Design d = routed_design(400, 23);
    const BinGrid grid(d.region, 32, 32);
    GlobalRouter router(grid);
    const RouteResult a = router.route(d);
    const RouteResult b = router.route(d);
    EXPECT_EQ(a.wirelength_dbu, b.wirelength_dbu);
    EXPECT_EQ(a.num_vias, b.num_vias);
    EXPECT_EQ(a.total_overflow, b.total_overflow);
    EXPECT_TRUE(a.demand_h == b.demand_h);
}

TEST(GlobalRouterTest, RrrReducesOverflow) {
    // Congested design: rip-up-and-reroute should not increase overflow.
    GeneratorConfig cfg;
    cfg.name = "congested";
    cfg.seed = 77;
    cfg.num_cells = 800;
    cfg.utilization = 0.85;
    const Design d = generate_circuit(cfg);
    const BinGrid grid(d.region, 32, 32);
    RouterConfig rc0;
    rc0.rrr_rounds = 0;
    RouterConfig rc3;
    rc3.rrr_rounds = 3;
    const RouteResult r0 = GlobalRouter(grid, rc0).route(d);
    const RouteResult r3 = GlobalRouter(grid, rc3).route(d);
    EXPECT_LE(r3.total_overflow, r0.total_overflow * 1.001 + 1e-9);
}

TEST(GlobalRouterTest, ClusteredPlacementHasHotterPeak) {
    // The same netlist clustered into a small box concentrates pin and
    // wire demand: the peak G-cell utilization must far exceed the spread
    // placement's (this is the "local congestion" of paper Fig. 1, even
    // though clustering also shortens nets and may lower total demand).
    GeneratorConfig cfg;
    cfg.seed = 31;
    cfg.num_cells = 600;
    Design spread = generate_circuit(cfg);
    Design clustered = spread;
    Rng rng(99);
    const Vec2 c = clustered.region.center();
    for (Cell& cell : clustered.cells) {
        if (!cell.movable()) continue;
        cell.pos = {c.x + rng.uniform(-20, 20), c.y + rng.uniform(-20, 20)};
    }
    const BinGrid grid(spread.region, 32, 32);
    GlobalRouter router(grid);
    const RouteResult rc = router.route(clustered);
    const RouteResult rs = router.route(spread);
    EXPECT_GT(rc.congestion.peak_utilization(),
              1.5 * rs.congestion.peak_utilization());
}

}  // namespace
}  // namespace rdp
