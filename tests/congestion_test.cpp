// Tests for the paper's core contribution: the congestion Poisson field,
// virtual-cell construction (Eq. 6-8), the two-pin net-moving gradient
// (Algorithm 1 / Eq. 9), multi-pin selection (Algorithm 2), and the
// lambda_2 schedule (Eq. 10).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "congestion/bbox_penalty.hpp"
#include "congestion/rudy.hpp"
#include "congestion/congestion_field.hpp"
#include "congestion/lambda_schedule.hpp"
#include "congestion/net_moving.hpp"
#include "congestion/virtual_cell.hpp"
#include "objective_oracle.hpp"
#include "util/rng.hpp"

namespace rdp {
namespace {

/// 16x16 G-cells of 10x10 DBU with a congested column/blob.
struct Fixture {
    BinGrid grid{Rect{0, 0, 160, 160}, 16, 16};
    GridF dmd, cap;

    Fixture() : dmd(16, 16, 2.0), cap(16, 16, 10.0) {}

    CongestionMap map() const { return CongestionMap(grid, dmd, cap); }
};

TEST(VirtualCellTest, KCountsTraversedGcells) {
    Fixture f;
    const CongestionMap m = f.map();
    // Horizontal segment spanning 5 G-cell widths.
    VirtualCell vc = find_virtual_cell({10, 15}, {60, 15}, m);
    EXPECT_EQ(vc.k, 5);
    EXPECT_TRUE(vc.valid);
    // Short segment inside one G-cell: k = 0, invalid.
    vc = find_virtual_cell({12, 15}, {18, 17}, m);
    EXPECT_EQ(vc.k, 0);
    EXPECT_FALSE(vc.valid);
    // Diagonal: k = max of the two spans.
    vc = find_virtual_cell({5, 5}, {5 + 30, 5 + 70}, m);
    EXPECT_EQ(vc.k, 7);
}

TEST(VirtualCellTest, PicksMaxCongestionCandidate) {
    Fixture f;
    f.dmd.at(8, 1) = 25.0;  // congestion 1.5 at column 8, row 1
    f.dmd.at(4, 1) = 15.0;  // congestion 0.5 at column 4
    const CongestionMap m = f.map();
    const VirtualCell vc = find_virtual_cell({5, 15}, {155, 15}, m);
    ASSERT_TRUE(vc.valid);
    EXPECT_DOUBLE_EQ(vc.congestion, 1.5);
    EXPECT_EQ(m.grid().index_of(vc.pos).ix, 8);
}

TEST(VirtualCellTest, CandidatePointsLieOnSegment) {
    Fixture f;
    f.dmd.at(8, 8) = 30.0;
    const CongestionMap m = f.map();
    const Vec2 p1{20, 30}, p2{140, 130};
    const VirtualCell vc = find_virtual_cell(p1, p2, m);
    ASSERT_TRUE(vc.valid);
    // vc.pos = p1 + t (p2 - p1) for some t in (0, 1).
    const Vec2 d = p2 - p1;
    const double t = (vc.pos - p1).dot(d) / d.norm2();
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 1.0);
    const Vec2 on_seg = p1 + t * d;
    EXPECT_NEAR((vc.pos - on_seg).norm(), 0.0, 1e-9);
}

TEST(VirtualCellTest, ZeroCongestionStillValidWithZeroValue) {
    Fixture f;  // uniform utilization 0.2, congestion 0 everywhere
    const VirtualCell vc = find_virtual_cell({5, 15}, {155, 15}, f.map());
    EXPECT_TRUE(vc.valid);
    EXPECT_DOUBLE_EQ(vc.congestion, 0.0);
}

TEST(CongestionFieldTest, FieldPushesAwayFromHotColumn) {
    Fixture f;
    for (int y = 0; y < 16; ++y) f.dmd.at(8, y) = 30.0;
    const CongestionMap m = f.map();
    CongestionField field(f.grid);
    field.build(m);
    // Left of the hot column the field points -x (away), right +x.
    EXPECT_LT(field.field_at({55, 80}).x, 0.0);
    EXPECT_GT(field.field_at({115, 80}).x, 0.0);
    // charge_gradient = -A E: moving down the gradient moves away.
    const Vec2 g = field.charge_gradient({55, 80}, 10.0);
    EXPECT_GT(g.x, 0.0);
}

TEST(CongestionFieldTest, PotentialPeaksAtHotSpot) {
    Fixture f;
    f.dmd.at(10, 10) = 40.0;
    CongestionField field(f.grid);
    field.build(f.map());
    const Vec2 hot = f.grid.bin_center(10, 10);
    EXPECT_GT(field.potential_at(hot), field.potential_at({15, 15}));
}

class NetMovingFixture : public ::testing::Test {
protected:
    void SetUp() override {
        f_.dmd = GridF(16, 16, 2.0);
        // Hot horizontal band on rows 6-7 (y in [60, 80)), with a peak at
        // column 8 so the virtual-cell winner is unambiguous.
        for (int x = 0; x < 16; ++x) {
            f_.dmd.at(x, 6) = 28.0;
            f_.dmd.at(x, 7) = 28.0;
        }
        f_.dmd.at(8, 7) = 34.0;
        cmap_ = f_.map();
        field_ = std::make_unique<CongestionField>(f_.grid);
        field_->build(cmap_);
    }

    /// Two-pin horizontal-ish net inside the hot band (y ~ 76).
    Design two_pin_design(double y1, double y2) {
        Design d;
        d.region = {0, 0, 160, 160};
        d.row_height = 8;
        const int a = d.add_cell("a", 4, 8, CellKind::Movable, {30, y1});
        const int b = d.add_cell("b", 4, 8, CellKind::Movable, {130, y2});
        const int net = d.add_net("n");
        d.connect(net, d.add_pin(a, {0, 0}));
        d.connect(net, d.add_pin(b, {0, 0}));
        return d;
    }

    Fixture f_;
    CongestionMap cmap_;
    std::unique_ptr<CongestionField> field_;
};

TEST_F(NetMovingFixture, TwoPinGradientIsPerpendicular) {
    const Design d = two_pin_design(76, 76);
    NetMovingGradient nm;
    const NetMovingResult res = nm.compute(d, cmap_, *field_);
    // A horizontal net: the perpendicular direction is vertical, so the
    // x component of both gradients must vanish and the y components
    // agree in direction (the whole net translates, paper Fig. 3(b)).
    ASSERT_EQ(res.cell_grad.size(), 2u);
    EXPECT_NEAR(res.cell_grad[0].x, 0.0, 1e-9);
    EXPECT_NEAR(res.cell_grad[1].x, 0.0, 1e-9);
    EXPECT_GT(std::abs(res.cell_grad[0].y), 0.0);
    EXPECT_GT(res.cell_grad[0].y * res.cell_grad[1].y, 0.0);
    EXPECT_EQ(res.virtual_cells_created, 1);
    // The net sits above the band center (y=76 vs 70): the congestion
    // gradient points back toward the hot center (-y), so gradient descent
    // moves the net up and out of the band.
    EXPECT_LT(res.cell_grad[0].y, 0.0);
}

TEST_F(NetMovingFixture, BothCellsMoveTheSameDirection) {
    // Slanted net crossing the band: gradients still share direction (the
    // whole net translates out of the congested band, paper Fig. 3(b)).
    const Design d = two_pin_design(66, 78);
    NetMovingGradient nm;
    const NetMovingResult res = nm.compute(d, cmap_, *field_);
    ASSERT_GT(res.cell_grad[0].norm(), 0.0);
    const double dot = res.cell_grad[0].dot(res.cell_grad[1]);
    EXPECT_GT(dot, 0.0);
}

TEST_F(NetMovingFixture, CloserPinGetsLargerGradient) {
    // Pin distances to the virtual cell differ -> Eq. (9): gradient scales
    // with L / (2 d_iv). The congestion peak is at column 8 (x ~ 85), so
    // the virtual cell lands there; the pin at x=60 is closer than x=150.
    Design d;
    d.region = {0, 0, 160, 160};
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {60, 76});
    const int b = d.add_cell("b", 4, 8, CellKind::Movable, {150, 76});
    const int net = d.add_net("n");
    d.connect(net, d.add_pin(a, {0, 0}));
    d.connect(net, d.add_pin(b, {0, 0}));
    NetMovingGradient nm;
    const NetMovingResult res = nm.compute(d, cmap_, *field_);
    EXPECT_GT(res.cell_grad[static_cast<size_t>(a)].norm(),
              res.cell_grad[static_cast<size_t>(b)].norm());
}

TEST_F(NetMovingFixture, UncongestedNetGetsNoGradient) {
    GridF dmd(16, 16, 2.0);  // no congestion anywhere
    const CongestionMap quiet(f_.grid, dmd, f_.cap);
    CongestionField field(f_.grid);
    field.build(quiet);
    const Design d = two_pin_design(76, 76);
    NetMovingGradient nm;
    const NetMovingResult res = nm.compute(d, quiet, field);
    EXPECT_EQ(res.cell_grad[0], Vec2{});
    EXPECT_EQ(res.cell_grad[1], Vec2{});
    EXPECT_EQ(res.virtual_cells_created, 0);
    EXPECT_EQ(res.num_congested_cells, 0);
}

TEST_F(NetMovingFixture, FixedCellsGetNoGradient) {
    Design d = two_pin_design(76, 76);
    d.cells[0].kind = CellKind::Fixed;
    NetMovingGradient nm;
    const NetMovingResult res = nm.compute(d, cmap_, *field_);
    EXPECT_EQ(res.cell_grad[0], Vec2{});
    EXPECT_GT(res.cell_grad[1].norm(), 0.0);
}

TEST_F(NetMovingFixture, MultiPinCellGatedBySelectionRule) {
    // Build a design where one cell has many pins and sits in the hot band
    // and another has many pins in a quiet area.
    Design d;
    d.region = {0, 0, 160, 160};
    const int hot = d.add_cell("hot", 4, 8, CellKind::Movable, {75, 75});
    const int cold = d.add_cell("cold", 4, 8, CellKind::Movable, {20, 20});
    const int lone = d.add_cell("lone", 4, 8, CellKind::Movable, {140, 140});
    // 4 three-pin nets hot-cold-lone: hot and cold get 4 pins each.
    for (int i = 0; i < 4; ++i) {
        const int n = d.add_net("n" + std::to_string(i));
        d.connect(n, d.add_pin(hot, {0, 0}));
        d.connect(n, d.add_pin(cold, {0, 0}));
        d.connect(n, d.add_pin(lone, {0, 0}));
    }
    // Average pins/cell = 12/3 = 4; nobody exceeds it. Add three-pin nets
    // (no two-pin nets in this design, so only Algorithm 2's multi-pin
    // path can produce gradients) to push `hot` and `lone` above average.
    for (int i = 0; i < 2; ++i) {
        const int n = d.add_net("m" + std::to_string(i));
        d.connect(n, d.add_pin(hot, {0, 0}));
        d.connect(n, d.add_pin(hot, {1, 0}));
        d.connect(n, d.add_pin(lone, {0, 0}));
    }
    // Now hot has 8 pins, cold 4, lone 6; average = 18/3 = 6.
    NetMovingConfig cfg;
    cfg.multi_pin_congestion_threshold = 0.7;
    NetMovingGradient nm(cfg);
    const NetMovingResult res = nm.compute(d, cmap_, *field_);
    // hot: pins > avg AND congestion at (75,75) = 1.8 > 0.7 -> updated.
    EXPECT_GT(res.multi_pin_updates, 0);
    // cold: pins > avg but congestion 0 -> no direct cell gradient. Its
    // gradient can still be nonzero only via two-pin nets (none here are
    // two-pin), so it must be exactly zero.
    EXPECT_EQ(res.cell_grad[static_cast<size_t>(cold)], Vec2{});
    EXPECT_GT(res.cell_grad[static_cast<size_t>(hot)].norm(), 0.0);
}

TEST_F(NetMovingFixture, CongestedCellCountForLambda2) {
    // Both cells sit inside the hot band: N_C = 2.
    const Design d = two_pin_design(76, 76);
    NetMovingGradient nm;
    const NetMovingResult res = nm.compute(d, cmap_, *field_);
    EXPECT_EQ(res.num_congested_cells, 2);
    // Moving one cell out of the band drops the count to 1.
    Design d2 = two_pin_design(76, 76);
    d2.cells[0].pos = {30, 20};
    const NetMovingResult res2 = nm.compute(d2, cmap_, *field_);
    EXPECT_EQ(res2.num_congested_cells, 1);
}


TEST_F(NetMovingFixture, MultiPinEdgeMovingExtension) {
    // EXTENSION: with move_multi_pin_edges on, a 3-pin net crossing the
    // hot band receives perpendicular net-moving gradients on its MST
    // edges; with it off (the paper's algorithm), a 3-pin net gets no
    // two-pin gradient at all.
    Design d;
    d.region = {0, 0, 160, 160};
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {20, 76});
    const int b = d.add_cell("b", 4, 8, CellKind::Movable, {80, 76});
    const int c = d.add_cell("c", 4, 8, CellKind::Movable, {140, 76});
    const int net = d.add_net("n");
    d.connect(net, d.add_pin(a, {0, 0}));
    d.connect(net, d.add_pin(b, {0, 0}));
    d.connect(net, d.add_pin(c, {0, 0}));

    NetMovingConfig off;
    const NetMovingResult r_off =
        NetMovingGradient(off).compute(d, cmap_, *field_);
    EXPECT_EQ(r_off.virtual_cells_created, 0);
    EXPECT_EQ(r_off.cell_grad[static_cast<size_t>(a)], Vec2{});

    NetMovingConfig on;
    on.move_multi_pin_edges = true;
    const NetMovingResult r_on =
        NetMovingGradient(on).compute(d, cmap_, *field_);
    EXPECT_GT(r_on.virtual_cells_created, 0);
    // Horizontal chain: gradients perpendicular (pure y), same direction.
    for (int ci : {a, b, c}) {
        EXPECT_NEAR(r_on.cell_grad[static_cast<size_t>(ci)].x, 0.0, 1e-9);
    }
    EXPECT_LT(r_on.cell_grad[static_cast<size_t>(a)].y, 0.0);
    EXPECT_GT(r_on.penalty, 0.0);
}

TEST_F(NetMovingFixture, MultiPinExtensionRespectsDegreeCap) {
    Design d;
    d.region = {0, 0, 160, 160};
    const int net = d.add_net("big");
    for (int i = 0; i < 6; ++i) {
        const int ci = d.add_cell("c" + std::to_string(i), 4, 8,
                                  CellKind::Movable,
                                  {20.0 + 24.0 * i, 76.0});
        d.connect(net, d.add_pin(ci, {0, 0}));
    }
    NetMovingConfig on;
    on.move_multi_pin_edges = true;
    on.max_multi_pin_degree = 4;  // net degree 6 exceeds the cap
    const NetMovingResult res =
        NetMovingGradient(on).compute(d, cmap_, *field_);
    EXPECT_EQ(res.virtual_cells_created, 0);
}


TEST_F(NetMovingFixture, BBoxPenaltyChargesUnrelatedCongestion) {
    // The paper's Fig. 1(b) criticism, reproduced as a test: a hot corner
    // INSIDE a net's bounding box but far from any plausible route still
    // charges the net under the BB model, while net moving ignores it.
    GridF dmd(16, 16, 2.0);
    dmd.at(12, 2) = 30.0;  // hot spot at the lower-right of the box
    const CongestionMap m(f_.grid, dmd, f_.cap);

    Design d;
    d.region = {0, 0, 160, 160};
    // L-shaped pin pair: BB spans x in [20,140], y in [15,150]; the hot
    // cell (120..130, 20..30) is inside the BB but the segment between
    // the pins passes nowhere near it.
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {20, 150});
    const int b = d.add_cell("b", 4, 8, CellKind::Movable, {140, 140});
    const int net = d.add_net("n");
    d.connect(net, d.add_pin(a, {0, 0}));
    d.connect(net, d.add_pin(b, {0, 0}));
    // Extend the BB down with a third pin on cell a.
    d.connect(net, d.add_pin(b, {0, -125}));

    BBoxCongestionGradient bbox;
    EXPECT_GT(bbox.net_penalty(d, d.nets[0], m), 0.0);

    CongestionField field(f_.grid);
    field.build(m);
    NetMovingGradient nm;
    const NetMovingResult res = nm.compute(d, m, field);
    // Three-pin net: the paper's Algorithm 1 does not touch it, and its
    // cells are not congested/multi-pin-selected either.
    EXPECT_DOUBLE_EQ(res.penalty, 0.0);
}

TEST_F(NetMovingFixture, BBoxGradientPullsAwayFromCongestedEdge) {
    // Two-pin net whose right end sits in the hot band column: the BB
    // gradient on that pin must point left (shrinking the box away from
    // the congestion).
    GridF dmd(16, 16, 2.0);
    for (int y = 0; y < 16; ++y) dmd.at(12, y) = 30.0;  // hot column 12
    const CongestionMap m(f_.grid, dmd, f_.cap);

    Design d;
    d.region = {0, 0, 160, 160};
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {20, 80});
    const int b = d.add_cell("b", 4, 8, CellKind::Movable, {125, 80});
    const int net = d.add_net("n");
    d.connect(net, d.add_pin(a, {0, 0}));
    d.connect(net, d.add_pin(b, {0, 0}));

    BBoxCongestionGradient bbox;
    const BBoxPenaltyResult res = bbox.compute(d, m);
    EXPECT_EQ(res.nets_penalized, 1);
    EXPECT_GT(res.penalty, 0.0);
    // hx edge at x=125 inside the hot column: widening right increases
    // the penalty -> positive x gradient on b (descent pulls it left).
    EXPECT_GT(res.cell_grad[static_cast<size_t>(b)].x, 0.0);
    // lx edge at x=20 is in quiet space: zero rate.
    EXPECT_NEAR(res.cell_grad[static_cast<size_t>(a)].x, 0.0, 1e-9);
}

TEST_F(NetMovingFixture, BBoxSkipsHighDegreeNets) {
    Design d;
    d.region = {0, 0, 160, 160};
    const int net = d.add_net("big");
    for (int i = 0; i < 40; ++i) {
        const int ci = d.add_cell("c" + std::to_string(i), 4, 8,
                                  CellKind::Movable,
                                  {10.0 + 3.5 * i, 70.0});
        d.connect(net, d.add_pin(ci, {0, 0}));
    }
    BBoxPenaltyConfig cfg;
    cfg.max_degree = 32;
    BBoxCongestionGradient bbox(cfg);
    const BBoxPenaltyResult res = bbox.compute(d, cmap_);
    EXPECT_EQ(res.nets_penalized, 0);
}


TEST(RudyTest, ConservesNetWirelength) {
    // Total RUDY demand (track units * mean extent) equals the summed
    // net HPWL-perimeter of all counted nets.
    Design d;
    d.region = {0, 0, 160, 160};
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {20, 20});
    const int b = d.add_cell("b", 4, 8, CellKind::Movable, {100, 60});
    const int net = d.add_net("n");
    d.connect(net, d.add_pin(a, {0, 0}));
    d.connect(net, d.add_pin(b, {0, 0}));
    const BinGrid grid({0, 0, 160, 160}, 16, 16);
    const GridF r = rudy_map(d, grid);
    const double mean_extent = 10.0;
    EXPECT_NEAR(grid_sum(r) * mean_extent, 80.0 + 40.0, 1e-6);
}

TEST(RudyTest, DemandConcentratesInBBox) {
    Design d;
    d.region = {0, 0, 160, 160};
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {30, 30});
    const int b = d.add_cell("b", 4, 8, CellKind::Movable, {60, 60});
    const int net = d.add_net("n");
    d.connect(net, d.add_pin(a, {0, 0}));
    d.connect(net, d.add_pin(b, {0, 0}));
    const BinGrid grid({0, 0, 160, 160}, 16, 16);
    const GridF r = rudy_map(d, grid);
    EXPECT_GT(r.at(4, 4), 0.0);   // inside the box
    EXPECT_DOUBLE_EQ(r.at(12, 12), 0.0);  // outside
}

TEST(RudyTest, PinRudyCountsPins) {
    Design d;
    d.region = {0, 0, 160, 160};
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {25, 25});
    d.add_pin(a, {0, 0});
    d.add_pin(a, {1, 0});
    const BinGrid grid({0, 0, 160, 160}, 16, 16);
    RudyConfig cfg;
    cfg.pin_weight = 0.5;
    const GridF p = pin_rudy_map(d, grid, cfg);
    EXPECT_DOUBLE_EQ(p.at(2, 2), 1.0);
    EXPECT_DOUBLE_EQ(grid_sum(p), 1.0);
}

TEST(RudyTest, CongestionMapUsesRouterCapacity) {
    Design d;
    d.region = {0, 0, 160, 160};
    // A dense one-bin cluster of 2-pin nets drives local RUDY congestion.
    std::vector<int> cells;
    for (int i = 0; i < 30; ++i)
        cells.push_back(d.add_cell("c" + std::to_string(i), 4, 8,
                                   CellKind::Movable,
                                   {75.0 + (i % 5), 75.0 + (i / 5)}));
    for (int i = 0; i + 1 < 30; i += 2) {
        const int net = d.add_net("n" + std::to_string(i));
        d.connect(net, d.add_pin(cells[i], {0, 0}));
        d.connect(net, d.add_pin(cells[i + 1], {0, 0}));
    }
    const BinGrid grid({0, 0, 160, 160}, 16, 16);
    const CongestionMap m = rudy_congestion(d, grid);
    EXPECT_GT(grid_sum(m.capacity()), 0.0);
    // The hot bin has more utilization than a far empty corner.
    EXPECT_GT(m.utilization_at(7, 7), m.utilization_at(1, 14));
}

TEST(RudyTest, RudyIsBlindToDetours) {
    // The paper's criticism quantified: RUDY sees only bounding boxes, so
    // two placements with identical pin positions but different routed
    // detours get the same RUDY map. (The router-based map differs - that
    // is why the framework routes in the loop.)
    Design d;
    d.region = {0, 0, 160, 160};
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {30, 80});
    const int b = d.add_cell("b", 4, 8, CellKind::Movable, {130, 80});
    const int net = d.add_net("n");
    d.connect(net, d.add_pin(a, {0, 0}));
    d.connect(net, d.add_pin(b, {0, 0}));
    const BinGrid grid({0, 0, 160, 160}, 16, 16);
    const GridF r1 = rudy_map(d, grid);
    // Add a routing blockage between the pins: routed demand must detour,
    // RUDY does not change at all.
    d.routing_blockages.push_back({70, 60, 90, 100});
    const GridF r2 = rudy_map(d, grid);
    EXPECT_TRUE(r1 == r2);
}

TEST(LambdaScheduleTest, Formula) {
    // lambda2 = (2 Nc / N) ||gW|| / ||gC||.
    EXPECT_DOUBLE_EQ(compute_lambda2(50, 100, 200.0, 10.0), 1.0 * 20.0);
    EXPECT_DOUBLE_EQ(compute_lambda2(0, 100, 200.0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(compute_lambda2(50, 100, 200.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(compute_lambda2(10, 0, 200.0, 10.0), 0.0);
}

TEST(LambdaScheduleTest, GradientL1) {
    EXPECT_DOUBLE_EQ(gradient_l1({{1, -2}, {-3, 4}}), 10.0);
    EXPECT_DOUBLE_EQ(gradient_l1({}), 0.0);
}

TEST_F(NetMovingFixture, PenaltyPositiveInCongestion) {
    const Design d = two_pin_design(76, 76);
    NetMovingGradient nm;
    const NetMovingResult res = nm.compute(d, cmap_, *field_);
    // The virtual cell sits in the hot band where potential is maximal,
    // so C(x,y) > 0.
    EXPECT_GT(res.penalty, 0.0);
}

// ---- Pin-slot net moving against the per-chunk oracle ----------------------

/// A 32 x 32 congestion map over seeded_netlist's region: random demand
/// with hot spots, so many G-cells exceed the multi-pin threshold.
struct SeededCongestion {
    BinGrid grid{Rect{0, 0, 1000, 1000}, 32, 32};
    CongestionMap cmap;
    std::unique_ptr<CongestionField> field;

    explicit SeededCongestion(uint64_t seed) {
        Rng rng(seed);
        GridF dmd(32, 32), cap(32, 32, 10.0);
        for (int y = 0; y < 32; ++y)
            for (int x = 0; x < 32; ++x)
                dmd.at(x, y) = rng.uniform(0, 14);
        for (int h = 0; h < 6; ++h) {
            const int cx = rng.uniform_int(2, 29), cy = rng.uniform_int(2, 29);
            for (int y = cy - 2; y <= cy + 2; ++y)
                for (int x = cx - 2; x <= cx + 2; ++x) dmd.at(x, y) += 12.0;
        }
        cap.at(3, 3) = 0.0;  // a blocked G-cell
        cmap = CongestionMap(grid, dmd, cap);
        field = std::make_unique<CongestionField>(grid);
        field->build(cmap);
    }
};

void expect_same_result(const NetMovingResult& got,
                        const NetMovingResult& want, const std::string& what) {
    EXPECT_TRUE(oracle::same_bits(got.cell_grad, want.cell_grad)) << what;
    EXPECT_TRUE(oracle::same_bits(got.penalty, want.penalty))
        << what << ": " << got.penalty << " vs " << want.penalty;
    EXPECT_EQ(got.num_congested_cells, want.num_congested_cells) << what;
    EXPECT_EQ(got.virtual_cells_created, want.virtual_cells_created) << what;
    EXPECT_EQ(got.multi_pin_updates, want.multi_pin_updates) << what;
}

TEST(NetMovingPinSlotTest, MatchesPerChunkOracleBitwise) {
    const int saved = par::max_threads();
    for (const uint64_t seed : {1u, 2u}) {
        const SeededCongestion cong(seed + 40);
        Design d = oracle::seeded_netlist(seed);
        for (const double threshold : {0.7, 0.2, -1.0}) {
            NetMovingConfig cfg;
            cfg.multi_pin_congestion_threshold = threshold;
            const NetMovingGradient per_call(cfg);
            NetMovingGradient bound(cfg);
            bound.set_slots(std::make_shared<const PinSlots>(d));
            Design moved = d;
            for (int round = 0; round < 2; ++round) {
                for (const int t : {1, 4}) {
                    par::set_max_threads(t);
                    const NetMovingResult want = oracle::net_moving_compute(
                        per_call, moved, cong.cmap, *cong.field);
                    // The case must exercise both algorithms.
                    EXPECT_GT(want.virtual_cells_created, 100);
                    EXPECT_GT(want.multi_pin_updates, 10);
                    const std::string what =
                        "seed " + std::to_string(seed) + " threshold " +
                        std::to_string(threshold) + " threads " +
                        std::to_string(t) + " round " + std::to_string(round);
                    expect_same_result(
                        per_call.compute(moved, cong.cmap, *cong.field), want,
                        what + " (per-call layout)");
                    expect_same_result(
                        bound.compute(moved, cong.cmap, *cong.field), want,
                        what + " (bound layout)");
                }
                Rng rng(seed + 7);
                for (Cell& c : moved.cells)
                    if (c.movable())
                        c.pos += Vec2{rng.uniform(-20, 20),
                                      rng.uniform(-20, 20)};
            }
        }
    }
    par::set_max_threads(saved);
}

TEST(NetMovingPinSlotTest, MultiPinExtensionKeepsPenaltyAndCounters) {
    // The extension's per-slot gradient (each MST edge adds w t to its two
    // endpoint slots) replaced a snapshot/restore of whole-cell sums, so
    // its gradient bits moved; its penalty and counters did not, and the
    // gradient agrees to rounding.
    const SeededCongestion cong(41);
    const Design d = oracle::seeded_netlist(1);
    NetMovingConfig cfg;
    cfg.move_multi_pin_edges = true;
    const NetMovingGradient nm(cfg);
    const NetMovingResult want =
        oracle::net_moving_compute(nm, d, cong.cmap, *cong.field);
    const NetMovingResult got = nm.compute(d, cong.cmap, *cong.field);
    EXPECT_TRUE(oracle::same_bits(got.penalty, want.penalty));
    EXPECT_EQ(got.virtual_cells_created, want.virtual_cells_created);
    EXPECT_EQ(got.multi_pin_updates, want.multi_pin_updates);
    double scale = 0.0;
    for (const Vec2& g : want.cell_grad) scale = std::max(scale, g.norm1());
    ASSERT_GT(scale, 0.0);
    for (size_t i = 0; i < got.cell_grad.size(); ++i) {
        EXPECT_NEAR(got.cell_grad[i].x, want.cell_grad[i].x, 1e-10 * scale);
        EXPECT_NEAR(got.cell_grad[i].y, want.cell_grad[i].y, 1e-10 * scale);
    }
}

TEST(NetMovingPinSlotTest, BoundGradientRejectsAnotherNetlist) {
    const SeededCongestion cong(41);
    const Design d = oracle::seeded_netlist(1);
    NetMovingGradient nm;
    nm.set_slots(std::make_shared<const PinSlots>(d));
    const Design other = oracle::seeded_netlist(1, 4501);
    EXPECT_THROW(nm.compute(other, cong.cmap, *cong.field),
                 std::invalid_argument);
}

TEST(CongestionMapTest, StoredGridIsEquation3) {
    const SeededCongestion cong(3);
    const CongestionMap& m = cong.cmap;
    for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
            const double want = std::max(m.utilization_at(x, y) - 1.0, 0.0);
            EXPECT_TRUE(oracle::same_bits(m.congestion_at(x, y), want));
            EXPECT_TRUE(oracle::same_bits(m.congestion_grid().at(x, y), want));
        }
    }
}

}  // namespace
}  // namespace rdp
