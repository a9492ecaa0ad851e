// Tests for the electrostatic density penalty: charge conservation,
// gradient direction (repulsion), inflation and extra-density hooks, and
// the overflow metric.

#include <gtest/gtest.h>

#include <stdexcept>

#include "density/electro_density.hpp"
#include "objective_oracle.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace rdp {
namespace {

Design blob_design(const std::vector<Vec2>& cells, double w = 4, double h = 8) {
    Design d;
    d.region = {0, 0, 256, 256};
    d.row_height = 8;
    for (size_t i = 0; i < cells.size(); ++i)
        d.add_cell("c" + std::to_string(i), w, h, CellKind::Movable, cells[i]);
    return d;
}

BinGrid grid256() { return BinGrid({0, 0, 256, 256}, 32, 32); }

TEST(DensityTest, MovableDensityConservesArea) {
    Rng rng(12);
    std::vector<Vec2> pos;
    for (int i = 0; i < 40; ++i)
        pos.push_back({rng.uniform(10, 246), rng.uniform(10, 246)});
    const Design d = blob_design(pos);
    const ElectroDensity ed(grid256());
    const GridF rho = ed.movable_density(d);
    EXPECT_NEAR(grid_sum(rho), d.total_movable_area(), 1e-6);
}

TEST(DensityTest, InflationScalesCharge) {
    const Design d = blob_design({{128, 128}});
    const ElectroDensity ed(grid256());
    std::vector<double> infl(1, 1.7);
    const GridF rho = ed.movable_density(d, &infl);
    EXPECT_NEAR(grid_sum(rho), 1.7 * d.total_movable_area(), 1e-6);
}

TEST(DensityTest, SubBinCellsSpreadButConserve) {
    // A cell much smaller than a bin is expanded to bin size with scaled
    // charge; total charge must stay the cell area. Center off the bin
    // grid so the expanded footprint straddles several bins.
    const Design d = blob_design({{98, 101}}, 1.0, 1.0);
    const ElectroDensity ed(grid256());
    const GridF rho = ed.movable_density(d);
    EXPECT_NEAR(grid_sum(rho), 1.0, 1e-9);
    EXPECT_LT(grid_max(rho), 1.0);  // spread across bins
}

TEST(DensityTest, TwoBlobsRepel) {
    // Two clusters: the gradient on each cell should push the clusters
    // apart (descent direction -grad points away from the other cluster).
    std::vector<Vec2> pos;
    for (int i = 0; i < 30; ++i) {
        pos.push_back({100.0 + (i % 5), 128.0 + (i / 5) * 2.0});
        pos.push_back({156.0 + (i % 5), 128.0 + (i / 5) * 2.0});
    }
    const Design d = blob_design(pos);
    const ElectroDensity ed(grid256());
    const DensityResult res = ed.evaluate(d);
    double left_gx = 0.0, right_gx = 0.0;
    for (int i = 0; i < d.num_cells(); ++i) {
        if (d.cells[i].pos.x < 128)
            left_gx += res.cell_grad[i].x;
        else
            right_gx += res.cell_grad[i].x;
    }
    // Increasing x of a left-cluster cell moves it toward the crowd:
    // density penalty rises -> positive gradient; mirror for the right.
    EXPECT_GT(left_gx, 0.0);
    EXPECT_LT(right_gx, 0.0);
}

TEST(DensityTest, FixedMacroRepelsMovables) {
    Design d = blob_design({{100, 128}});
    d.add_cell("macro", 60, 60, CellKind::Macro, {150, 128});
    const ElectroDensity ed(grid256());
    const DensityResult res = ed.evaluate(d);
    // The movable cell left of the macro is pushed left: gradient > 0.
    EXPECT_GT(res.cell_grad[0].x, 0.0);
    // Macro gets no gradient.
    EXPECT_EQ(res.cell_grad[1], Vec2{});
}

TEST(DensityTest, ExtraDensityActsAsCharge) {
    Design d = blob_design({{100, 128}});
    const BinGrid g = grid256();
    const ElectroDensity ed(g);
    GridF extra = g.make_grid();
    // Strong artificial charge right of the cell.
    g.splat_area(extra, {140, 100, 180, 156}, 3.0);
    const DensityResult with = ed.evaluate(d, nullptr, &extra);
    const DensityResult without = ed.evaluate(d);
    EXPECT_GT(with.cell_grad[0].x, without.cell_grad[0].x);
}

TEST(DensityTest, GradientMatchesFiniteDifferenceInExternalField) {
    // A small movable probe near a large fixed blob: the inter-charge
    // force dominates the probe's lattice self-force, so the analytic
    // gradient must track finite differences of the penalty closely.
    // (Pure self-force is zero-mean lattice noise that every ePlace-style
    // implementation carries; it is not meaningful to check.)
    const ElectroDensity ed(grid256());
    for (const Vec2 probe_pos : {Vec2{90, 128}, Vec2{101, 99}, Vec2{150, 60},
                                 Vec2{77, 181}}) {
        Design d = blob_design({probe_pos});
        d.add_cell("blob", 48, 48, CellKind::Macro, {128, 128});
        const DensityResult res = ed.evaluate(d);
        const double h = 0.5;
        for (int axis = 0; axis < 2; ++axis) {
            Design dp = d, dm = d;
            (axis == 0 ? dp.cells[0].pos.x : dp.cells[0].pos.y) += h;
            (axis == 0 ? dm.cells[0].pos.x : dm.cells[0].pos.y) -= h;
            const double fd =
                (ed.evaluate(dp).penalty - ed.evaluate(dm).penalty) / (2 * h);
            const double an =
                axis == 0 ? res.cell_grad[0].x : res.cell_grad[0].y;
            if (std::abs(fd) > 1e-3) {
                EXPECT_GT(an * fd, 0.0)
                    << "sign flip at " << probe_pos << " axis " << axis;
                EXPECT_NEAR(an, fd, 0.30 * std::abs(fd) + 2e-3)
                    << "at " << probe_pos << " axis " << axis;
            }
        }
    }
}

TEST(DensityTest, GradientSignCorrectAtCloseRange) {
    // Adjacent cells (1 bin apart): magnitudes are discretization-limited
    // but the repulsion direction must still be right.
    std::vector<Vec2> pos = {{100, 100}, {108, 100}};
    Design d = blob_design(pos);
    const ElectroDensity ed(grid256());
    const DensityResult res = ed.evaluate(d);
    // Moving the left cell right (toward the other) raises the penalty, so
    // its x-gradient is positive (descent pushes it away); mirrored for
    // the right cell.
    EXPECT_GT(res.cell_grad[0].x, 0.0);
    EXPECT_LT(res.cell_grad[1].x, 0.0);
}

TEST(DensityTest, OverflowDropsWhenSpread) {
    // Clustered cells overflow; spreading them to distinct bins removes it.
    std::vector<Vec2> clustered, spread;
    for (int i = 0; i < 64; ++i) {
        clustered.push_back({120.0 + (i % 8), 120.0 + (i / 8)});
        spread.push_back({16.0 + (i % 8) * 30.0, 16.0 + (i / 8) * 30.0});
    }
    const ElectroDensity ed(grid256());
    const double of_clustered = ed.evaluate(blob_design(clustered)).overflow;
    const double of_spread = ed.evaluate(blob_design(spread)).overflow;
    EXPECT_GT(of_clustered, 0.5);
    EXPECT_LT(of_spread, 0.05);
}

TEST(DensityTest, PenaltyDropsWhenSpread) {
    std::vector<Vec2> clustered, spread;
    for (int i = 0; i < 64; ++i) {
        clustered.push_back({120.0 + (i % 8), 120.0 + (i / 8)});
        spread.push_back({16.0 + (i % 8) * 30.0, 16.0 + (i / 8) * 30.0});
    }
    const ElectroDensity ed(grid256());
    EXPECT_GT(ed.evaluate(blob_design(clustered)).penalty,
              ed.evaluate(blob_design(spread)).penalty);
}

TEST(DensityTest, SetFixedGivesPerCallBits) {
    // set_fixed splats the fixed cells and macros once; every later
    // evaluate() must give what a per-call splat gives.
    Design d = oracle::seeded_netlist(5, 300);
    const BinGrid grid({0, 0, 1000, 1000}, 32, 32);
    const ElectroDensity per_call(grid);
    ElectroDensity bound(grid);
    bound.set_fixed(d);
    const std::vector<double> ratios(d.cells.size(), 1.3);
    GridF extra = grid.make_grid();
    extra.at(3, 4) = 50.0;
    const int saved = par::max_threads();
    Rng rng(9);
    for (int round = 0; round < 2; ++round) {
        for (const int t : {1, 4}) {
            par::set_max_threads(t);
            const DensityResult want = per_call.evaluate(d, &ratios, &extra);
            const DensityResult got = bound.evaluate(d, &ratios, &extra);
            EXPECT_TRUE(oracle::same_bits(got.penalty, want.penalty));
            EXPECT_TRUE(oracle::same_bits(got.overflow, want.overflow));
            EXPECT_TRUE(oracle::same_bits(got.cell_grad, want.cell_grad));
            EXPECT_EQ(got.density, want.density);
        }
        for (Cell& c : d.cells)
            if (c.movable())
                c.pos += Vec2{rng.uniform(-30, 30), rng.uniform(-30, 30)};
    }
    par::set_max_threads(saved);
    // A design with another cell count is refused.
    Design fewer = d;
    fewer.cells.pop_back();
    EXPECT_THROW(bound.evaluate(fewer), std::invalid_argument);
}

}  // namespace
}  // namespace rdp
