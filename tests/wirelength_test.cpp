// Tests for HPWL and the WA smooth wirelength model, including
// finite-difference gradient verification.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "objective_oracle.hpp"
#include "util/rng.hpp"
#include "wirelength/hpwl.hpp"
#include "wirelength/wa_kernel.hpp"
#include "wirelength/wa_model.hpp"

namespace rdp {
namespace {

/// Design with `n` single-pin cells all on one net, at given positions.
Design chain_design(const std::vector<Vec2>& positions) {
    Design d;
    d.region = {0, 0, 1000, 1000};
    const int net = d.add_net("n");
    for (size_t i = 0; i < positions.size(); ++i) {
        const int c = d.add_cell("c" + std::to_string(i), 2, 8,
                                 CellKind::Movable, positions[i]);
        const int p = d.add_pin(c, {0, 0});
        d.connect(net, p);
    }
    return d;
}

TEST(HpwlTest, TwoPinNet) {
    const Design d = chain_design({{10, 20}, {40, 60}});
    EXPECT_DOUBLE_EQ(net_hpwl(d, d.nets[0]), 30.0 + 40.0);
    EXPECT_DOUBLE_EQ(total_hpwl(d), 70.0);
}

TEST(HpwlTest, MultiPinBoundingBox) {
    const Design d = chain_design({{0, 0}, {10, 5}, {4, 20}, {7, 3}});
    EXPECT_DOUBLE_EQ(net_hpwl(d, d.nets[0]), 10.0 + 20.0);
    const Rect b = net_bbox(d, d.nets[0]);
    EXPECT_EQ(b, Rect(0, 0, 10, 20));
}

TEST(HpwlTest, DegenerateNets) {
    Design d;
    d.region = {0, 0, 100, 100};
    const int c = d.add_cell("c", 2, 8, CellKind::Movable, {50, 50});
    const int p = d.add_pin(c, {0, 0});
    const int net = d.add_net("single");
    d.connect(net, p);
    EXPECT_DOUBLE_EQ(net_hpwl(d, d.nets[0]), 0.0);
    d.add_net("empty");
    EXPECT_DOUBLE_EQ(net_hpwl(d, d.nets[1]), 0.0);
    EXPECT_DOUBLE_EQ(total_hpwl(d), 0.0);
}

TEST(HpwlTest, NetWeightScalesTotal) {
    Design d = chain_design({{0, 0}, {10, 10}});
    d.nets[0].weight = 3.0;
    EXPECT_DOUBLE_EQ(total_hpwl(d), 60.0);
}

TEST(HpwlTest, PinOffsetsCount) {
    Design d = chain_design({{10, 10}, {20, 10}});
    d.pins[0].offset = {-1.0, 2.0};
    d.pins[1].offset = {1.0, 0.0};
    EXPECT_DOUBLE_EQ(net_hpwl(d, d.nets[0]), (21.0 - 9.0) + 2.0);
}

TEST(WaModelTest, UnderestimatesAndConvergesToHpwl) {
    const Design d = chain_design({{3, 7}, {55, 40}, {20, 90}, {77, 12}});
    const double hp = net_hpwl(d, d.nets[0]);
    double prev_err = 1e18;
    for (const double gamma : {64.0, 16.0, 4.0, 1.0, 0.25}) {
        const WAWirelength wa(gamma);
        const double w = wa.net_wa(d, d.nets[0]);
        EXPECT_LE(w, hp + 1e-9) << "gamma " << gamma;
        const double err = hp - w;
        EXPECT_LE(err, prev_err + 1e-9) << "gamma " << gamma;
        prev_err = err;
    }
    // Tight approximation at small gamma.
    EXPECT_NEAR(WAWirelength(0.25).net_wa(d, d.nets[0]), hp, 0.05 * hp);
}

TEST(WaModelTest, TwoPinExactLimit) {
    const Design d = chain_design({{0, 0}, {100, 0}});
    EXPECT_NEAR(WAWirelength(0.5).net_wa(d, d.nets[0]), 100.0, 1e-6);
}

TEST(WaModelTest, StableForLargeCoordinates) {
    // Exponent shifting must prevent overflow with huge coordinates and
    // tiny gamma.
    const Design d = chain_design({{1e7, 2e7}, {1.5e7, 2.4e7}, {1.2e7, 2.2e7}});
    const WAWirelength wa(1.0);
    const double w = wa.net_wa(d, d.nets[0]);
    EXPECT_TRUE(std::isfinite(w));
    EXPECT_NEAR(w, net_hpwl(d, d.nets[0]), 10.0);
}

class WaGradientCheck : public ::testing::TestWithParam<int> {};

TEST_P(WaGradientCheck, MatchesFiniteDifference) {
    const int degree = GetParam();
    Rng rng(100 + degree);
    std::vector<Vec2> pos(static_cast<size_t>(degree));
    for (auto& p : pos) p = {rng.uniform(0, 200), rng.uniform(0, 200)};
    Design d = chain_design(pos);
    const WAWirelength wa(8.0);

    const WirelengthResult res = wa.evaluate(d);
    const double h = 1e-5;
    for (int i = 0; i < d.num_cells(); ++i) {
        for (int axis = 0; axis < 2; ++axis) {
            Design dp = d;
            Design dm = d;
            auto& cp = dp.cells[static_cast<size_t>(i)].pos;
            auto& cm = dm.cells[static_cast<size_t>(i)].pos;
            (axis == 0 ? cp.x : cp.y) += h;
            (axis == 0 ? cm.x : cm.y) -= h;
            const double fd = (wa.evaluate(dp).total - wa.evaluate(dm).total) /
                              (2.0 * h);
            const double an = axis == 0 ? res.cell_grad[i].x
                                        : res.cell_grad[i].y;
            EXPECT_NEAR(an, fd, 1e-5 + 1e-4 * std::abs(fd))
                << "cell " << i << " axis " << axis;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Degrees, WaGradientCheck,
                         ::testing::Values(2, 3, 5, 9, 17));

TEST(WaModelTest, GradientAccumulatesOverNets) {
    // A cell on two nets receives the sum of both nets' gradients.
    Design d;
    d.region = {0, 0, 100, 100};
    const int a = d.add_cell("a", 2, 8, CellKind::Movable, {50, 50});
    const int b = d.add_cell("b", 2, 8, CellKind::Movable, {10, 50});
    const int c = d.add_cell("c", 2, 8, CellKind::Movable, {90, 50});
    const int n1 = d.add_net("n1");
    d.connect(n1, d.add_pin(a, {0, 0}));
    d.connect(n1, d.add_pin(b, {0, 0}));
    const int n2 = d.add_net("n2");
    d.connect(n2, d.add_pin(a, {0, 0}));
    d.connect(n2, d.add_pin(c, {0, 0}));
    const WAWirelength wa(4.0);
    const WirelengthResult res = wa.evaluate(d);
    // a sits between b and c: pulls cancel approximately.
    EXPECT_NEAR(res.cell_grad[static_cast<size_t>(a)].x, 0.0, 1e-6);
    // b is pulled right (positive gradient means increasing x increases WL,
    // so the descent direction -grad points right; grad must be negative).
    EXPECT_LT(res.cell_grad[static_cast<size_t>(b)].x, 0.0);
    EXPECT_GT(res.cell_grad[static_cast<size_t>(c)].x, 0.0);
}

TEST(WaModelTest, WeightedTotal) {
    Design d = chain_design({{0, 0}, {10, 0}});
    d.nets[0].weight = 2.0;
    const WAWirelength wa(1.0);
    const WirelengthResult res = wa.evaluate(d);
    EXPECT_NEAR(res.total, 2.0 * wa.net_wa(d, d.nets[0]), 1e-12);
}

// ---- Pin-slot evaluation against the per-chunk oracle ----------------------

/// Moves every movable cell by a seeded offset, so a second evaluation
/// through reused buffers sees new coordinates.
void jiggle(Design& d, uint64_t seed) {
    Rng rng(seed);
    for (Cell& c : d.cells)
        if (c.movable())
            c.pos += Vec2{rng.uniform(-5, 5), rng.uniform(-5, 5)};
}

TEST(PinSlotTest, SeededNetlistHasTheStressShapes) {
    const Design d = oracle::seeded_netlist(1);
    const PinSlots slots(d);
    const par::ChunkPlan& cp = slots.net_plan();
    ASSERT_EQ(cp.num_chunks, 16u);
    // A hub has pins in every chunk.
    std::vector<bool> hub_chunks(cp.num_chunks, false);
    for (size_t c = 0; c < cp.num_chunks; ++c)
        for (size_t n = cp.begin(c); n < cp.end(c); ++n)
            for (int p : d.nets[n].pins)
                if (d.pins[static_cast<size_t>(p)].cell == 0)
                    hub_chunks[c] = true;
    EXPECT_EQ(std::count(hub_chunks.begin(), hub_chunks.end(), true), 16);
    // Degree-0 and degree-1 nets; a cell on both pins of a 2-pin net and
    // on two pins of a multi-pin net.
    int deg0 = 0, deg1 = 0, twice2 = 0, twice_multi = 0;
    for (const Net& n : d.nets) {
        deg0 += n.degree() == 0;
        deg1 += n.degree() == 1;
        for (size_t i = 1; i < n.pins.size(); ++i) {
            if (d.pins[static_cast<size_t>(n.pins[i])].cell !=
                d.pins[static_cast<size_t>(n.pins[i - 1])].cell)
                continue;
            (n.degree() == 2 ? twice2 : twice_multi)++;
        }
    }
    EXPECT_GT(deg0, 0);
    EXPECT_GT(deg1, 0);
    EXPECT_GT(twice2, 0);
    EXPECT_GT(twice_multi, 0);
    EXPECT_FALSE(d.macro_cells().empty());
    // Some chunk's count of each batched degree leaves a short last batch.
    for (int deg = 2; deg <= PinSlots::kMaxBatchDegree; ++deg) {
        bool short_batch = false;
        for (size_t c = 0; c < cp.num_chunks; ++c)
            short_batch |=
                (slots.batch_end(c, deg) - slots.batch_begin(c, deg)) % 4 != 0;
        EXPECT_TRUE(short_batch) << "degree " << deg;
    }
}

TEST(PinSlotTest, WaMatchesPerChunkOracleBitwise) {
    const int saved = par::max_threads();
    for (const uint64_t seed : {1u, 2u, 3u}) {
        Design d = oracle::seeded_netlist(seed);
        const WAWirelength per_call(9.0);
        WAWirelength bound(9.0);
        bound.set_slots(std::make_shared<const PinSlots>(d));
        for (int round = 0; round < 2; ++round) {
            for (const int t : {1, 4}) {
                par::set_max_threads(t);
                const WirelengthResult want = oracle::wa_evaluate(per_call, d);
                for (const WAWirelength* wa :
                     {&per_call, static_cast<const WAWirelength*>(&bound)}) {
                    const WirelengthResult got = wa->evaluate(d);
                    EXPECT_TRUE(oracle::same_bits(got.total, want.total))
                        << "seed " << seed << " threads " << t;
                    EXPECT_TRUE(
                        oracle::same_bits(got.cell_grad, want.cell_grad))
                        << "seed " << seed << " threads " << t;
                }
            }
            jiggle(d, seed + 100);
        }
    }
    par::set_max_threads(saved);
}

TEST(PinSlotTest, BoundModelRejectsAnotherNetlist) {
    const Design d = oracle::seeded_netlist(1);
    WAWirelength wa(9.0);
    wa.set_slots(std::make_shared<const PinSlots>(d));
    Design other = d;
    other.connect(0, other.add_pin(5, {0, 0}));
    EXPECT_THROW(wa.evaluate(other), std::invalid_argument);
    EXPECT_NO_THROW(wa.evaluate(d));
}

// ---- The lane-per-net kernel against wa_1d_core -----------------------------

/// wa_lanes<V, N> on four nets (xs[j][lane]) must give wa_1d_core<V>'s bits
/// for each net, on the active backend and on ScalarVecD, and the two
/// backends must agree.
template <int N>
void expect_lanes_match_core(const double (&xs)[N][4], double gamma) {
    using simd::ScalarVecD;
    using simd::VecD;
    double lanes_wa[2][4], lanes_grad[2][N][4];
    const auto run_lanes = [&](auto tag, int b) {
        using V = decltype(tag);
        V x[N], g[N];
        for (int j = 0; j < N; ++j) x[j] = V::loadu(xs[j]);
        wa::wa_lanes<V, N>(x, gamma, g).storeu(lanes_wa[b]);
        for (int j = 0; j < N; ++j) g[j].storeu(lanes_grad[b][j]);
    };
    run_lanes(VecD{}, 0);
    run_lanes(ScalarVecD{}, 1);
    for (int l = 0; l < 4; ++l) {
        double net[N], wp[4], wm[4], grad[2][N];
        for (int j = 0; j < N; ++j) net[j] = xs[j][l];
        const double core[2] = {
            wa::wa_1d_core<VecD>(net, N, gamma, wp, wm, grad[0]),
            wa::wa_1d_core<ScalarVecD>(net, N, gamma, wp, wm, grad[1])};
        for (int b = 0; b < 2; ++b) {
            EXPECT_TRUE(oracle::same_bits(core[b], core[0]));
            EXPECT_TRUE(oracle::same_bits(lanes_wa[b][l], core[0]))
                << "N " << N << " lane " << l << " backend " << b << ": "
                << lanes_wa[b][l] << " vs " << core[0];
            for (int j = 0; j < N; ++j) {
                EXPECT_TRUE(oracle::same_bits(grad[b][j], grad[0][j]));
                EXPECT_TRUE(oracle::same_bits(lanes_grad[b][j][l], grad[0][j]))
                    << "N " << N << " lane " << l << " pin " << j
                    << " backend " << b;
            }
        }
    }
}

template <int N>
void lanes_cases(uint64_t seed) {
    Rng rng(seed);
    const double specials[] = {0.0, -0.0, 1e7, -1e7, 3.25, 3.25, 1e-300};
    for (const double gamma : {0.5, 1.0, 8.0, 1e3}) {
        for (int rep = 0; rep < 200; ++rep) {
            double xs[N][4];
            for (int l = 0; l < 4; ++l) {
                const int kind = (rep + l) % 4;
                for (int j = 0; j < N; ++j) {
                    switch (kind) {
                        case 0:  // random spread
                            xs[j][l] = rng.uniform(-500, 1500);
                            break;
                        case 1:  // tied pins, then one moved
                            xs[j][l] = j == N - 1 && rep % 2 ? 42.5 + j : 42.5;
                            break;
                        case 2:  // ±0, ties, and 1e7 apart (exp clamp)
                            xs[j][l] = specials[rng.uniform_int(0, 6)];
                            break;
                        default:  // a cluster and one far pin
                            xs[j][l] = j == 0 ? rng.uniform(0, 1) * 1e7
                                              : rng.uniform(0, 4);
                    }
                }
            }
            expect_lanes_match_core<N>(xs, gamma);
        }
    }
}

TEST(WaLanesTest, MatchesCoreBitwiseOnBothBackends) {
    lanes_cases<2>(11);
    lanes_cases<3>(12);
    lanes_cases<4>(13);
}

}  // namespace
}  // namespace rdp
