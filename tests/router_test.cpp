// Tests for the global routing substrate: net decomposition, pattern
// routing, layer assignment, and the full router's accounting invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "benchgen/generator.hpp"
#include "benchgen/ispd_suite.hpp"
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


/// Equal spans, direction included: "the same route, bit for bit".
void expect_same_spans(const RoutePath& a, const RoutePath& b) {
    ASSERT_EQ(a.segs.size(), b.segs.size());
    for (size_t i = 0; i < a.segs.size(); ++i) {
        const RouteSeg &s = a.segs[i], &t = b.segs[i];
        EXPECT_TRUE(s.x0 == t.x0 && s.y0 == t.y0 && s.x1 == t.x1 &&
                    s.y1 == t.y1 && s.dir == t.dir)
            << "span " << i;
    }
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

/// Window locality of the routing kernels: a connection's pattern and maze
/// routes read no cost outside its maze window, and depend on nothing but
/// the costs inside it. Routed on a copy of that window with translated
/// endpoints, the connection gets the translated full-grid route and cost,
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
        expect_same_spans(mz, shifted(mz_local, w.x0, w.y0));
        EXPECT_EQ(path_cost(mz, full), path_cost(mz_local, local));

        PatternScratch ps;
        RoutePath pat, pat_local;
        pattern_route_into(x0, y0, x1, y1, full, 12, ps, pat);
        pattern_route_into(ax, ay, bx, by, local, 12, ps, pat_local);
        expect_same_spans(pat, shifted(pat_local, w.x0, w.y0));
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

/// maze_route answers with the bucket-queue search when it can certify
/// the binary-heap reference's path and with the reference otherwise
/// (DESIGN.md §17). Every case compares both searches with the reference
/// span for span and counts which one answered, so each field shows that
/// the certified path ran, or that the fallback did.
class MazeEquivalenceTest : public ::testing::Test {
protected:
    int certified_ = 0;
    int fell_back_ = 0;

    void expect_exact(const GridF& ch, const GridF& cv, double via, int x0,
                      int y0, int x1, int y1, const MazeConfig& cfg = {}) {
        SCOPED_TRACE(::testing::Message() << "(" << x0 << "," << y0 << ")->("
                                          << x1 << "," << y1 << ")");
        const RouteCostModel m{&ch, &cv, via};
        const RoutePath ref = maze_detail::heap_route(x0, y0, x1, y1, m, cfg);
        expect_contiguous(ref, x0, y0, x1, y1);
        const std::optional<RoutePath> fast =
            maze_detail::bucket_route(x0, y0, x1, y1, m, cfg);
        if (fast) {
            ++certified_;
            expect_same_spans(*fast, ref);
        } else {
            ++fell_back_;
        }
        expect_same_spans(maze_route(x0, y0, x1, y1, m, cfg), ref);
    }

    /// `trials` random endpoint pairs on the fields.
    void random_pairs(Rng& rng, const GridF& ch, const GridF& cv, double via,
                      int trials, const MazeConfig& cfg = {}) {
        for (int t = 0; t < trials; ++t)
            expect_exact(ch, cv, via, rng.uniform_int(0, ch.width() - 1),
                         rng.uniform_int(0, ch.height() - 1),
                         rng.uniform_int(0, ch.width() - 1),
                         rng.uniform_int(0, ch.height() - 1), cfg);
    }
};

TEST_F(MazeEquivalenceTest, RandomCostFields) {
    Rng rng(101);
    GridF ch(48, 40), cv(48, 40);
    MazeConfig narrow;
    narrow.window_margin = 2;
    for (int field = 0; field < 8; ++field) {
        // The router's cell cost 1 + hist + 2 util is above 1.
        for (auto& v : ch) v = rng.uniform(1.0, 9.0);
        for (auto& v : cv) v = rng.uniform(1.0, 9.0);
        random_pairs(rng, ch, cv, 1.0, 10);
        random_pairs(rng, ch, cv, 1.0, 10, narrow);
    }
    EXPECT_EQ(fell_back_, 0);
}

TEST_F(MazeEquivalenceTest, UniformFieldsWhereTiesAreCommon) {
    Rng rng(103);
    GridF ch(32, 32, 1.5), cv(32, 32, 1.5);
    random_pairs(rng, ch, cv, 1.0, 60);
    // Three distinct values: ties between unequal paths as well.
    for (auto& v : ch) v = rng.uniform_int(1, 3);
    for (auto& v : cv) v = rng.uniform_int(1, 3);
    random_pairs(rng, ch, cv, 1.0, 60);
    EXPECT_GT(certified_, 0);
    EXPECT_GT(fell_back_, 0);
}

TEST_F(MazeEquivalenceTest, WallWithOneGap) {
    Rng rng(107);
    GridF ch(40, 32), cv(40, 32);
    for (int field = 0; field < 6; ++field) {
        for (auto& v : ch) v = rng.uniform(1.0, 3.0);
        for (auto& v : cv) v = rng.uniform(1.0, 3.0);
        const int wall_x = rng.uniform_int(10, 29);
        const int gap_y = rng.uniform_int(0, 31);
        for (int y = 0; y < 32; ++y) {
            if (y == gap_y) continue;
            ch.at(wall_x, y) = 40.0;
            cv.at(wall_x, y) = 40.0;
        }
        for (int t = 0; t < 8; ++t)
            expect_exact(ch, cv, 1.0, rng.uniform_int(0, wall_x - 1),
                         rng.uniform_int(0, 31),
                         rng.uniform_int(wall_x + 1, 39),
                         rng.uniform_int(0, 31));
    }
    EXPECT_GT(certified_, 0);
}

TEST_F(MazeEquivalenceTest, WindowsClampedAtTheGridBorder) {
    Rng rng(109);
    GridF ch(24, 20), cv(24, 20);
    for (auto& v : ch) v = rng.uniform(1.0, 6.0);
    for (auto& v : cv) v = rng.uniform(1.0, 6.0);
    // Corner to corner, then edge-hugging pairs whose windows clamp.
    expect_exact(ch, cv, 1.0, 0, 0, 23, 19);
    expect_exact(ch, cv, 1.0, 23, 0, 0, 19);
    for (int t = 0; t < 20; ++t) {
        expect_exact(ch, cv, 1.0, rng.uniform_int(0, 2),
                     rng.uniform_int(0, 19), rng.uniform_int(0, 23),
                     rng.uniform_int(17, 19));
        expect_exact(ch, cv, 1.0, rng.uniform_int(21, 23),
                     rng.uniform_int(0, 2), rng.uniform_int(0, 23),
                     rng.uniform_int(0, 19));
    }
    EXPECT_GT(certified_, 0);
}

TEST_F(MazeEquivalenceTest, OneByNWindows) {
    Rng rng(113);
    GridF row_h(30, 1), row_v(30, 1), col_h(1, 30), col_v(1, 30);
    for (GridF* g : {&row_h, &row_v, &col_h, &col_v})
        for (auto& v : *g) v = rng.uniform(1.0, 4.0);
    for (int t = 0; t < 15; ++t) {
        const int a = rng.uniform_int(0, 29), b = rng.uniform_int(0, 29);
        expect_exact(row_h, row_v, 1.0, a, 0, b, 0);
        expect_exact(col_h, col_v, 1.0, 0, a, 0, b);
    }
    // Margin 0 cuts a 1 x N window out of a wider grid.
    GridF ch(30, 30), cv(30, 30);
    for (auto& v : ch) v = rng.uniform(1.0, 4.0);
    for (auto& v : cv) v = rng.uniform(1.0, 4.0);
    MazeConfig zero;
    zero.window_margin = 0;
    for (int t = 0; t < 15; ++t) {
        const int a = rng.uniform_int(0, 29), b = rng.uniform_int(0, 29);
        const int c = rng.uniform_int(0, 29);
        expect_exact(ch, cv, 1.0, a, c, b, c, zero);
        expect_exact(ch, cv, 1.0, c, a, c, b, zero);
    }
    EXPECT_GT(certified_, 0);
}

TEST_F(MazeEquivalenceTest, ZeroViaCost) {
    Rng rng(127);
    GridF ch(32, 32), cv(32, 32);
    for (int field = 0; field < 4; ++field) {
        for (auto& v : ch) v = rng.uniform(1.0, 5.0);
        for (auto& v : cv) v = rng.uniform(1.0, 5.0);
        random_pairs(rng, ch, cv, 0.0, 15);
    }
    EXPECT_GT(certified_, 0);
}

TEST_F(MazeEquivalenceTest, ExtremeCostRatioFallsBack) {
    // One cell 1e9 times dearer than the rest would need ~2e9 ring buckets.
    Rng rng(131);
    GridF ch(24, 24), cv(24, 24);
    for (auto& v : ch) v = rng.uniform(1.0, 2.0);
    for (auto& v : cv) v = rng.uniform(1.0, 2.0);
    ch.at(12, 12) = 1e9;
    cv.at(12, 12) = 1e9;
    // Endpoints in [4, 19]: every margin-8 window holds cell (12, 12).
    for (int t = 0; t < 10; ++t)
        expect_exact(ch, cv, 1.0, rng.uniform_int(4, 19),
                     rng.uniform_int(4, 19), rng.uniform_int(4, 19),
                     rng.uniform_int(4, 19));
    EXPECT_EQ(certified_, 0);
    EXPECT_EQ(fell_back_, 10);
}

TEST_F(MazeEquivalenceTest, NonPositiveOrNonFiniteCostFallsBack) {
    // The window is the whole grid. At width 16 every column is in the
    // set-up's four-lane body; at width 15 columns 12-14 are its scalar
    // tail, where the cost_h case lands. Random costs, unlike a uniform
    // field, leave no tie between the goal's two directions, so the clean
    // field is answered and only the bad cost can make the search fall
    // back.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Rng rng(163);
    for (const int n : {16, 15}) {
        GridF ch(n, n), cv(n, n);
        for (auto& v : ch) v = rng.uniform(1.0, 6.0);
        for (auto& v : cv) v = rng.uniform(1.0, 6.0);
        const RouteCostModel m{&ch, &cv, 1.0};
        ASSERT_TRUE(maze_detail::bucket_route(2, 2, 9, 9, m, {}));
        const double nan = std::numeric_limits<double>::quiet_NaN();
        for (const double bad : {0.0, -1.0, kInf, -kInf, nan}) {
            for (const auto& [grid, x] :
                 {std::pair{&cv, 5}, std::pair{&ch, n - 2}}) {
                const double saved = grid->at(x, 5);
                grid->at(x, 5) = bad;
                EXPECT_FALSE(maze_detail::bucket_route(2, 2, 9, 9, m, {}))
                    << "width " << n << ", cost " << bad << " at x " << x;
                grid->at(x, 5) = saved;
            }
        }
        const RouteCostModel negative_via{&ch, &cv, -0.5};
        EXPECT_FALSE(maze_detail::bucket_route(2, 2, 9, 9, negative_via, {}));
    }
}

TEST_F(MazeEquivalenceTest, CheapCorridorBesideACostlyBoundingBox) {
    // The endpoints' bounding box is dear and the margin rows and columns
    // around it are cheap, so every column and row minimum comes from the
    // margin: the heuristic is as loose as it gets inside the box, and the
    // best path leaves the box for the corridor.
    Rng rng(137);
    GridF ch(40, 40), cv(40, 40);
    for (int field = 0; field < 6; ++field) {
        const int x0 = rng.uniform_int(10, 16), y0 = rng.uniform_int(10, 16);
        const int x1 = rng.uniform_int(23, 29), y1 = rng.uniform_int(23, 29);
        for (int y = 0; y < 40; ++y)
            for (int x = 0; x < 40; ++x) {
                const bool box = x >= x0 && x <= x1 && y >= y0 && y <= y1;
                const double lo = box ? 6.0 : 1.0, hi = box ? 9.0 : 1.2;
                ch.at(x, y) = rng.uniform(lo, hi);
                cv.at(x, y) = rng.uniform(lo, hi);
            }
        expect_exact(ch, cv, 1.0, x0, y0, x1, y1);
        expect_exact(ch, cv, 1.0, x1, y0, x0, y1);
        expect_exact(ch, cv, 1.0, x0, y1, x1, y0);
        expect_exact(ch, cv, 1.0, x1, y1, x0, y0);
    }
    EXPECT_GT(certified_, 0);
}

TEST_F(MazeEquivalenceTest, GoalOnTheWindowBorder) {
    // Goals on a grid edge (the window clamps there) and, with margin 0,
    // goals on a corner of the endpoints' bounding box.
    Rng rng(139);
    GridF ch(30, 26), cv(30, 26);
    for (auto& v : ch) v = rng.uniform(1.0, 5.0);
    for (auto& v : cv) v = rng.uniform(1.0, 5.0);
    MazeConfig zero;
    zero.window_margin = 0;
    for (int t = 0; t < 12; ++t) {
        const int sx = rng.uniform_int(5, 24), sy = rng.uniform_int(5, 20);
        expect_exact(ch, cv, 1.0, sx, sy, 0, rng.uniform_int(0, 25));
        expect_exact(ch, cv, 1.0, sx, sy, 29, rng.uniform_int(0, 25));
        expect_exact(ch, cv, 1.0, sx, sy, rng.uniform_int(0, 29), 0);
        expect_exact(ch, cv, 1.0, sx, sy, rng.uniform_int(0, 29), 25);
        expect_exact(ch, cv, 1.0, sx, sy, rng.uniform_int(0, 29),
                     rng.uniform_int(0, 25), zero);
    }
    EXPECT_GT(certified_, 0);
}

TEST_F(MazeEquivalenceTest, UniformCostsWhereTheHeuristicIsExact) {
    // On a uniform field every column and row minimum is the cell cost, so
    // h is the exact remaining wire cost; every monotone path to the goal
    // ties unless one straight run reaches it. With a free via the tied
    // paths are staircases, and the two searches' pop orders disagree on
    // most of them: only the tie certificate keeps the answers equal.
    Rng rng(149);
    for (const double via : {1.0, 0.0})
        for (const double c : {1.0, 2.5}) {
            GridF ch(32, 28, c), cv(32, 28, c);
            for (int t = 0; t < 30; ++t)
                expect_exact(ch, cv, via, rng.uniform_int(0, 31),
                             rng.uniform_int(0, 27), rng.uniform_int(0, 31),
                             rng.uniform_int(0, 27));
            // Straight runs have a single best path.
            for (int t = 0; t < 8; ++t) {
                const int y = rng.uniform_int(0, 27);
                const int x = rng.uniform_int(0, 31);
                expect_exact(ch, cv, via, rng.uniform_int(0, 31), y,
                             rng.uniform_int(0, 31), y);
                expect_exact(ch, cv, via, x, rng.uniform_int(0, 27), x,
                             rng.uniform_int(0, 27));
            }
        }
    EXPECT_GT(certified_, 0);
    EXPECT_GT(fell_back_, 0);
}

TEST_F(MazeEquivalenceTest, WallBesideAnEndpointWithOneGap) {
    // A dear wall one cell from the start or the goal, with one gap: the
    // heuristic points straight through the wall, and the path must turn
    // along it first.
    Rng rng(151);
    GridF ch(36, 30), cv(36, 30);
    for (int field = 0; field < 8; ++field) {
        for (auto& v : ch) v = rng.uniform(1.0, 2.0);
        for (auto& v : cv) v = rng.uniform(1.0, 2.0);
        const int sx = rng.uniform_int(6, 12), sy = rng.uniform_int(4, 25);
        const int gx = rng.uniform_int(22, 30), gy = rng.uniform_int(4, 25);
        const int wall = field % 2 == 0 ? sx + 1 : gx - 1;
        const int gap = rng.uniform_int(0, 29);
        for (int y = 0; y < 30; ++y) {
            if (y == gap) continue;
            ch.at(wall, y) = 50.0;
            cv.at(wall, y) = 50.0;
        }
        expect_exact(ch, cv, 1.0, sx, sy, gx, gy);
        expect_exact(ch, cv, 1.0, gx, gy, sx, sy);
    }
    EXPECT_GT(certified_, 0);
}

TEST_F(MazeEquivalenceTest, RouterCostFieldsOfASuiteDesign) {
    // The cost fields the router leaves after its last rip-up-and-reroute
    // round, history included, with its own via cost and window margin:
    // every connection of the design is searched on them.
    const SuiteEntry e = suite_entry("fft_1", 0.25);
    const Design d = generate_circuit(e.gen);
    const RouterConfig rc;
    IncrementalRouteState state;
    GlobalRouter(BinGrid(d.region, e.grid_bins, e.grid_bins), rc)
        .route(d, &state);
    const RouterScratch& s = state.scratch;
    ASSERT_GT(s.conns.size(), 100u);
    for (const RouteConn& c : s.conns)
        expect_exact(s.cost_h, s.cost_v, 1.0, c.ax, c.ay, c.bx, c.by, rc.maze);
    EXPECT_GE(certified_, 0.99 * static_cast<double>(certified_ + fell_back_));
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
