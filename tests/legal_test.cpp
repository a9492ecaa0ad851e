// Tests for the legalization stack: Tetris, Abacus refinement, and greedy
// detailed placement — legality invariants over randomized designs.

#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "legal/abacus.hpp"
#include "legal/detailed_place.hpp"
#include "legal/pin_access_refine.hpp"
#include "legal/tetris.hpp"
#include "util/rng.hpp"
#include "wirelength/hpwl.hpp"

namespace rdp {
namespace {

Design random_design(int cells, double util, uint64_t seed, int macros = 0) {
    GeneratorConfig cfg;
    cfg.name = "legal-test";
    cfg.seed = seed;
    cfg.num_cells = cells;
    cfg.num_macros = macros;
    cfg.macro_area_frac = macros > 0 ? 0.12 : 0.0;
    cfg.utilization = util;
    cfg.num_ios = 8;
    return generate_circuit(cfg);
}

TEST(TetrisTest, ProducesLegalPlacement) {
    Design d = random_design(400, 0.6, 11);
    const LegalizeStats st = tetris_legalize(d);
    EXPECT_EQ(st.cells_failed, 0);
    EXPECT_EQ(st.cells_placed, 400);
    EXPECT_TRUE(is_legal(d));
}

class TetrisSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(TetrisSweep, LegalAcrossUtilizationsAndMacros) {
    const auto [cells, util, macros] = GetParam();
    Design d = random_design(cells, util, 100 + cells + macros, macros);
    const LegalizeStats st = tetris_legalize(d);
    EXPECT_EQ(st.cells_failed, 0);
    EXPECT_TRUE(is_legal(d)) << "cells=" << cells << " util=" << util
                             << " macros=" << macros;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TetrisSweep,
    ::testing::Values(std::make_tuple(100, 0.5, 0),
                      std::make_tuple(300, 0.7, 0),
                      std::make_tuple(300, 0.85, 0),
                      std::make_tuple(500, 0.6, 3),
                      std::make_tuple(500, 0.8, 3),
                      std::make_tuple(800, 0.75, 5)));

TEST(TetrisTest, MacrosUntouched) {
    Design d = random_design(300, 0.6, 12, 3);
    std::vector<Vec2> macro_pos;
    for (int m : d.macro_cells()) macro_pos.push_back(d.cells[m].pos);
    tetris_legalize(d);
    size_t i = 0;
    for (int m : d.macro_cells()) EXPECT_EQ(d.cells[m].pos, macro_pos[i++]);
}

TEST(TetrisTest, SmallDisplacementWhenAlreadySpread) {
    // Cells pre-placed on a regular grid: legalization barely moves them.
    Design d;
    d.region = {0, 0, 100, 80};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    for (int i = 0; i < 40; ++i) {
        const double x = 5.0 + (i % 8) * 12.0;
        const double y = 4.0 + (i / 8) * 16.0;
        d.add_cell("c" + std::to_string(i), 2, 8, CellKind::Movable, {x, y});
    }
    const LegalizeStats st = tetris_legalize(d);
    EXPECT_TRUE(is_legal(d));
    EXPECT_LT(st.max_displacement, 8.0);
}

TEST(IsLegalTest, DetectsViolations) {
    Design d;
    d.region = {0, 0, 100, 80};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    d.add_cell("a", 4, 8, CellKind::Movable, {10, 4});   // row 0, site 8
    d.add_cell("b", 4, 8, CellKind::Movable, {12, 4});   // overlaps a
    EXPECT_FALSE(is_legal(d));
    d.cells[1].pos = {14, 4};  // touching, no overlap
    EXPECT_TRUE(is_legal(d));
    d.cells[1].pos = {14.5, 4};  // off site grid
    EXPECT_FALSE(is_legal(d));
    d.cells[1].pos = {14, 6};  // off row grid
    EXPECT_FALSE(is_legal(d));
    d.cells[1].pos = {99, 4};  // sticks out of the region
    EXPECT_FALSE(is_legal(d));
}

/// 50 rows of 100 movable cells each, packed left of x = 300 with one-site
/// gaps, and fixed cells to their right: fixed cell k sits in row 5 + 10k
/// at [300, 320). The fixed cells are interleaved with the movables in
/// index order.
Design many_movables_few_fixed() {
    Design d;
    d.region = {0, 0, 400, 400};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    for (int r = 0; r < 50; ++r) {
        if (r % 10 == 5)
            d.add_cell("fx" + std::to_string(r / 10), 20, 8, CellKind::Fixed,
                       {310, 8.0 * r + 4});
        for (int i = 0; i < 100; ++i)
            d.add_cell("mv" + std::to_string(r) + "_" + std::to_string(i), 2,
                       8, CellKind::Movable, {3.0 * i + 1, 8.0 * r + 4});
    }
    return d;
}

std::string fixed_overlap(const Design& d, int cell, int fixed) {
    return "cell " + std::to_string(cell) + " ('" +
           d.cells[static_cast<size_t>(cell)].name + "') overlaps fixed cell " +
           std::to_string(fixed) + " ('" +
           d.cells[static_cast<size_t>(fixed)].name + "')";
}

TEST(IsLegalTest, FirstViolationAmongManyMovablesAndFewFixedCells) {
    const Design base = many_movables_few_fixed();
    ASSERT_EQ(base.num_cells(), 5005);
    EXPECT_EQ(legality_violation(base), "");
    EXPECT_TRUE(is_legal(base));
    std::vector<int> fixed, movable;
    for (int i = 0; i < base.num_cells(); ++i)
        (base.cells[static_cast<size_t>(i)].movable() ? movable : fixed)
            .push_back(i);
    ASSERT_EQ(fixed.size(), 5u);

    // Seeded overlaps: one or two movables moved onto fixed cells. The
    // report names the pair in the lowest row.
    Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        Design d = base;
        const int n = rng.uniform_int(1, 2);
        int want_cell = -1, want_fixed = -1;
        double lowest = 1e300;
        for (int k = 0; k < n; ++k) {
            const int m = movable[static_cast<size_t>(
                rng.uniform_int(0, static_cast<int>(movable.size()) - 1))];
            const int f = fixed[static_cast<size_t>(
                rng.uniform_int(0, static_cast<int>(fixed.size()) - 1))];
            const Vec2 at = d.cells[static_cast<size_t>(f)].pos;
            const double dx = rng.uniform_int(-10, 10);
            d.cells[static_cast<size_t>(m)].pos = {at.x + dx, at.y};
            if (at.y < lowest) {
                lowest = at.y;
                want_cell = m;
                want_fixed = f;
            } else if (at.y == lowest) {
                want_cell = -1;  // two movables on one fixed cell overlap
            }
        }
        if (want_cell < 0) continue;
        EXPECT_EQ(legality_violation(d),
                  fixed_overlap(d, want_cell, want_fixed))
            << "trial " << trial;
        EXPECT_FALSE(is_legal(d));
    }

    // A movable over two fixed cells names the lower-indexed one.
    Design two = base;
    two.add_cell("fx_right", 20, 8, CellKind::Fixed, {330, 44});  // row 5
    const int m = movable.back();
    two.cells[static_cast<size_t>(m)].pos = {320, 44};  // spans x = 319..321
    EXPECT_EQ(legality_violation(two), fixed_overlap(two, m, fixed[0]));

    // A row overlap between movables is reported with its depth.
    Design row = base;
    row.cells[static_cast<size_t>(movable[1])].pos.x -= 2;  // onto movable[0]
    EXPECT_EQ(legality_violation(row),
              "cells " + std::to_string(movable[0]) + " ('mv0_0') and " +
                  std::to_string(movable[1]) +
                  " ('mv0_1') overlap in a row by 1");
}

TEST(AbacusTest, PreservesLegalityAndReducesDisplacement) {
    Design d = random_design(500, 0.7, 13, 2);
    std::vector<Vec2> desired(static_cast<size_t>(d.num_cells()));
    for (int i = 0; i < d.num_cells(); ++i) desired[i] = d.cells[i].pos;
    tetris_legalize(d);
    ASSERT_TRUE(is_legal(d));
    double disp_before = 0.0;
    for (int i : d.movable_cells())
        disp_before += std::abs(d.cells[i].pos.x - desired[i].x);
    const double disp_after = abacus_refine(d, desired);
    EXPECT_TRUE(is_legal(d));
    EXPECT_LE(disp_after, disp_before + 1e-6);
}

TEST(AbacusTest, SingleRowOptimalPacking) {
    // Three same-width cells wanting the same x: Abacus packs them around
    // the target (quadratic-optimal cluster).
    Design d;
    d.region = {0, 0, 100, 8};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    for (int i = 0; i < 3; ++i)
        d.add_cell("c" + std::to_string(i), 4, 8, CellKind::Movable,
                   {50.0 + i, 4});
    std::vector<Vec2> desired = {{50, 4}, {50, 4}, {50, 4}};
    tetris_legalize(d);
    abacus_refine(d, desired);
    ASSERT_TRUE(is_legal(d));
    // Cluster of width 12 centered near x=50: cells near 44..56.
    std::vector<double> xs;
    for (int i = 0; i < 3; ++i) xs.push_back(d.cells[i].bbox().lx);
    std::sort(xs.begin(), xs.end());
    EXPECT_NEAR(xs[0], 44.0, 2.0);
    EXPECT_NEAR(xs[2], 52.0, 2.0);
}

TEST(DetailedPlaceTest, ReducesHpwlAndKeepsLegality) {
    Design d = random_design(400, 0.65, 14);
    tetris_legalize(d);
    ASSERT_TRUE(is_legal(d));
    const double before = total_hpwl(d);
    const DetailedPlaceStats st = detailed_place(d);
    EXPECT_TRUE(is_legal(d));
    EXPECT_LE(st.hpwl_after, before + 1e-6);
    EXPECT_DOUBLE_EQ(st.hpwl_before, before);
    EXPECT_GT(st.swaps + st.shifts, 0);
}

TEST(DetailedPlaceTest, NoMovesOnOptimalPlacement) {
    // Two disconnected cells, each already at its net's optimum.
    Design d;
    d.region = {0, 0, 64, 8};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    const int a = d.add_cell("a", 2, 8, CellKind::Movable, {11, 4});
    const int f = d.add_cell("f", 2, 8, CellKind::Fixed, {11, 4});
    (void)f;
    d.cells[1].pos = {31, 4};
    const int n = d.add_net("n");
    d.connect(n, d.add_pin(a, {0, 0}));
    d.connect(n, d.add_pin(1, {0, 0}));
    // Place a at the fixed pin's x already.
    d.cells[0].pos = {31, 4};
    tetris_legalize(d);
    detailed_place(d);
    EXPECT_TRUE(is_legal(d));
}


TEST(PinAccessRefineTest, FlipFreesRailPins) {
    // A cell with its pin at the bottom edge, sitting on a rail along the
    // row boundary: flipping moves the pin to the top, off the rail.
    Design d;
    d.region = {0, 0, 100, 80};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {50, 4});
    d.add_pin(a, {0.0, -3.5});  // near the bottom edge, y = 0.5
    std::vector<PGRail> rails(1);
    rails[0].orient = Orient::Horizontal;
    rails[0].box = {0, -1, 100, 1};  // rail on the y = 0 boundary

    ASSERT_EQ(pins_under_rails(d, a, rails), 1);
    const PinAccessRefineStats st = pin_access_refine(d, rails);
    EXPECT_EQ(st.cells_considered, 1);
    EXPECT_EQ(st.flips, 1);
    EXPECT_EQ(st.pins_freed, 1);
    EXPECT_EQ(pins_under_rails(d, a, rails), 0);
    // Geometry untouched: only the pin offset changed.
    EXPECT_EQ(d.cells[a].pos, Vec2(50, 4));
    EXPECT_DOUBLE_EQ(d.pins[0].offset.y, 3.5);
}

TEST(PinAccessRefineTest, RejectsFlipThatHurtsWirelength) {
    // The flipped pin would move far from its net partner: the HPWL guard
    // must reject the flip.
    Design d;
    d.region = {0, 0, 100, 80};
    d.row_height = 8;
    d.site_width = 1;
    d.build_rows();
    const int a = d.add_cell("a", 4, 8, CellKind::Movable, {50, 4});
    const int pa = d.add_pin(a, {0.0, -3.5});
    const int b = d.add_cell("b", 4, 8, CellKind::Fixed, {50, 0.5});
    const int pb = d.add_pin(b, {0.0, 0.0});
    const int net = d.add_net("n");
    d.connect(net, pa);
    d.connect(net, pb);
    std::vector<PGRail> rails(1);
    rails[0].orient = Orient::Horizontal;
    rails[0].box = {0, -1, 100, 1};

    PinAccessRefineConfig cfg;
    cfg.max_hpwl_increase_frac = 0.0;  // strict: no HPWL growth allowed
    const PinAccessRefineStats st = pin_access_refine(d, rails, cfg);
    EXPECT_EQ(st.flips, 0);
    EXPECT_DOUBLE_EQ(d.pins[0].offset.y, -3.5);  // unchanged
}

TEST(PinAccessRefineTest, SymmetricCellIsFlippedOrNotButNeverWorse) {
    // Property over a generated design: refinement never increases the
    // number of rail-covered pins and never changes cell positions.
    Design d = random_design(300, 0.6, 77);
    tetris_legalize(d);
    std::vector<PGRail> rails;
    for (const PGRail& r : d.pg_rails) rails.push_back(r);
    int before = 0;
    for (int i = 0; i < d.num_cells(); ++i)
        before += pins_under_rails(d, i, rails);
    std::vector<Vec2> pos;
    for (const Cell& c : d.cells) pos.push_back(c.pos);
    const PinAccessRefineStats st = pin_access_refine(d, rails);
    int after = 0;
    for (int i = 0; i < d.num_cells(); ++i)
        after += pins_under_rails(d, i, rails);
    EXPECT_LE(after, before);
    EXPECT_EQ(before - after, st.pins_freed);
    for (int i = 0; i < d.num_cells(); ++i) EXPECT_EQ(d.cells[i].pos, pos[i]);
    EXPECT_TRUE(is_legal(d));
}

class LegalizationPipelineSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LegalizationPipelineSweep, FullPipelineLegalAndNoHpwlBlowup) {
    Design d = random_design(350, 0.72, GetParam(), 2);
    std::vector<Vec2> desired(static_cast<size_t>(d.num_cells()));
    for (int i = 0; i < d.num_cells(); ++i) desired[i] = d.cells[i].pos;
    const double hpwl_gp = total_hpwl(d);
    tetris_legalize(d);
    abacus_refine(d, desired);
    const DetailedPlaceStats st = detailed_place(d);
    EXPECT_TRUE(is_legal(d));
    // Legalization of a random (spread) placement should not blow up HPWL.
    EXPECT_LT(st.hpwl_after, 1.5 * hpwl_gp + 1e3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LegalizationPipelineSweep,
                         ::testing::Values(21, 22, 23, 24));

}  // namespace
}  // namespace rdp
