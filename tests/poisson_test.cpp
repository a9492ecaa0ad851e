// Tests for the spectral Poisson solver: manufactured solutions, boundary
// behaviour, compatibility handling, and field consistency.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "fft/dct.hpp"
#include "poisson/poisson.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace rdp {
namespace {

// Build rho for a single cosine mode (u, v): rho = cos(wu (x+.5)) cos(wv (y+.5)).
GridF mode_density(int nx, int ny, int u, int v) {
    GridF rho(nx, ny);
    const double wu = M_PI * u / nx, wv = M_PI * v / ny;
    for (int y = 0; y < ny; ++y)
        for (int x = 0; x < nx; ++x)
            rho.at(x, y) =
                std::cos(wu * (x + 0.5)) * std::cos(wv * (y + 0.5));
    return rho;
}

TEST(PoissonTest, SingleModeManufacturedSolution) {
    // For rho = cos cos mode (u,v), psi = rho / (wu^2 + wv^2).
    const int n = 32;
    const int u = 3, v = 5;
    PoissonSolver solver(n, n);
    const GridF rho = mode_density(n, n, u, v);
    const PoissonSolution sol = solver.solve(rho);
    const double wu = M_PI * u / n, wv = M_PI * v / n;
    const double scale = 1.0 / (wu * wu + wv * wv);
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            EXPECT_NEAR(sol.potential.at(x, y), rho.at(x, y) * scale, 1e-9);
}

TEST(PoissonTest, SingleModeField) {
    // Ex = -dpsi/dx = wu/(wu^2+wv^2) sin(wu(x+.5)) cos(wv(y+.5)).
    const int n = 32;
    const int u = 2, v = 1;
    PoissonSolver solver(n, n);
    const PoissonSolution sol = solver.solve(mode_density(n, n, u, v));
    const double wu = M_PI * u / n, wv = M_PI * v / n;
    const double denom = wu * wu + wv * wv;
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            const double ex = wu / denom * std::sin(wu * (x + 0.5)) *
                              std::cos(wv * (y + 0.5));
            const double ey = wv / denom * std::cos(wu * (x + 0.5)) *
                              std::sin(wv * (y + 0.5));
            EXPECT_NEAR(sol.field_x.at(x, y), ex, 1e-9);
            EXPECT_NEAR(sol.field_y.at(x, y), ey, 1e-9);
        }
    }
}

TEST(PoissonTest, PotentialHasZeroMean) {
    const int n = 64;
    PoissonSolver solver(n, n);
    Rng rng(17);
    GridF rho(n, n);
    for (auto& v : rho) v = rng.uniform(0.0, 2.0);
    const GridF psi = solver.solve_potential(rho);
    EXPECT_NEAR(grid_mean(psi), 0.0, 1e-9);
}

TEST(PoissonTest, ConstantDensityGivesZeroPotential) {
    // Mean-shift removes a constant entirely.
    const int n = 16;
    PoissonSolver solver(n, n);
    const PoissonSolution sol = solver.solve(GridF(n, n, 5.0));
    for (const double v : sol.potential) EXPECT_NEAR(v, 0.0, 1e-10);
    for (const double v : sol.field_x) EXPECT_NEAR(v, 0.0, 1e-10);
    for (const double v : sol.field_y) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(PoissonTest, LaplacianOfPotentialMatchesDensity) {
    // Central-difference Laplacian of psi ~ -(rho - mean(rho)) away from
    // the boundary (second-order accurate; smooth input keeps error small).
    const int n = 64;
    PoissonSolver solver(n, n);
    GridF rho(n, n);
    // Low-frequency mode mix keeps the continuous-vs-discrete Laplacian
    // discrepancy (O(w^4)) well below the tolerance.
    Rng rng(41);
    for (int k = 0; k < 5; ++k) {
        const int u = rng.uniform_int(0, 4), v = rng.uniform_int(0, 4);
        const double a = rng.uniform(-1.0, 1.0);
        const GridF m = mode_density(n, n, u, v);
        for (int y = 0; y < n; ++y)
            for (int x = 0; x < n; ++x) rho.at(x, y) += a * m.at(x, y);
    }
    const double mean = grid_mean(rho);
    const GridF psi = solver.solve_potential(rho);
    for (int y = 2; y < n - 2; ++y) {
        for (int x = 2; x < n - 2; ++x) {
            const double lap = psi.at(x + 1, y) + psi.at(x - 1, y) +
                               psi.at(x, y + 1) + psi.at(x, y - 1) -
                               4.0 * psi.at(x, y);
            EXPECT_NEAR(lap, -(rho.at(x, y) - mean), 5e-3)
                << "at (" << x << "," << y << ")";
        }
    }
}

TEST(PoissonTest, FieldIsNegativeGradientOfPotential) {
    const int n = 64;
    PoissonSolver solver(n, n);
    Rng rng(3);
    GridF rho(n, n);
    // Smooth random density: sum of a few low-frequency modes.
    for (int k = 0; k < 6; ++k) {
        const int u = rng.uniform_int(0, 4), v = rng.uniform_int(0, 4);
        const double a = rng.uniform(-1.0, 1.0);
        const GridF m = mode_density(n, n, u, v);
        for (int y = 0; y < n; ++y)
            for (int x = 0; x < n; ++x) rho.at(x, y) += a * m.at(x, y);
    }
    const PoissonSolution sol = solver.solve(rho);
    for (int y = 1; y < n - 1; ++y) {
        for (int x = 1; x < n - 1; ++x) {
            const double gx =
                (sol.potential.at(x + 1, y) - sol.potential.at(x - 1, y)) / 2;
            const double gy =
                (sol.potential.at(x, y + 1) - sol.potential.at(x, y - 1)) / 2;
            EXPECT_NEAR(sol.field_x.at(x, y), -gx, 2e-2);
            EXPECT_NEAR(sol.field_y.at(x, y), -gy, 2e-2);
        }
    }
}

TEST(PoissonTest, FieldPointsAwayFromBlob) {
    // A concentrated blob at the center: field to its right points +x.
    const int n = 32;
    PoissonSolver solver(n, n);
    GridF rho(n, n);
    rho.at(16, 16) = 100.0;
    const PoissonSolution sol = solver.solve(rho);
    EXPECT_GT(sol.field_x.at(24, 16), 0.0);
    EXPECT_LT(sol.field_x.at(8, 16), 0.0);
    EXPECT_GT(sol.field_y.at(16, 24), 0.0);
    EXPECT_LT(sol.field_y.at(16, 8), 0.0);
    // Potential is maximal at the blob.
    double best = sol.potential.at(0, 0);
    int bx = 0, by = 0;
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            if (sol.potential.at(x, y) > best) {
                best = sol.potential.at(x, y);
                bx = x;
                by = y;
            }
    EXPECT_EQ(bx, 16);
    EXPECT_EQ(by, 16);
}


TEST(PoissonTest, LinearityOfSolve) {
    // The solve is linear: solve(a*r1 + b*r2) = a*solve(r1) + b*solve(r2).
    const int n = 32;
    PoissonSolver solver(n, n);
    Rng rng(55);
    GridF r1(n, n), r2(n, n);
    for (auto& v : r1) v = rng.uniform(0.0, 1.0);
    for (auto& v : r2) v = rng.uniform(0.0, 1.0);
    GridF mix(n, n);
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            mix.at(x, y) = 2.0 * r1.at(x, y) - 0.5 * r2.at(x, y);
    const PoissonSolution s1 = solver.solve(r1);
    const PoissonSolution s2 = solver.solve(r2);
    const PoissonSolution sm = solver.solve(mix);
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            EXPECT_NEAR(sm.potential.at(x, y),
                        2.0 * s1.potential.at(x, y) -
                            0.5 * s2.potential.at(x, y),
                        1e-9);
            EXPECT_NEAR(sm.field_x.at(x, y),
                        2.0 * s1.field_x.at(x, y) -
                            0.5 * s2.field_x.at(x, y),
                        1e-9);
        }
    }
}

TEST(PoissonTest, SymmetryOfMirroredDensity) {
    // Mirroring the charge mirrors the potential and flips the x field.
    const int n = 32;
    PoissonSolver solver(n, n);
    Rng rng(66);
    GridF rho(n, n);
    for (auto& v : rho) v = rng.uniform(0.0, 1.0);
    GridF mirrored(n, n);
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            mirrored.at(x, y) = rho.at(n - 1 - x, y);
    const PoissonSolution a = solver.solve(rho);
    const PoissonSolution b = solver.solve(mirrored);
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            EXPECT_NEAR(b.potential.at(x, y),
                        a.potential.at(n - 1 - x, y), 1e-9);
            EXPECT_NEAR(b.field_x.at(x, y), -a.field_x.at(n - 1 - x, y),
                        1e-9);
            EXPECT_NEAR(b.field_y.at(x, y), a.field_y.at(n - 1 - x, y),
                        1e-9);
        }
    }
}

TEST(PoissonTest, RectangularGrid) {
    const int nx = 64, ny = 16;
    PoissonSolver solver(nx, ny);
    const int u = 2, v = 1;
    GridF rho(nx, ny);
    const double wu = M_PI * u / nx, wv = M_PI * v / ny;
    for (int y = 0; y < ny; ++y)
        for (int x = 0; x < nx; ++x)
            rho.at(x, y) =
                std::cos(wu * (x + 0.5)) * std::cos(wv * (y + 0.5));
    const PoissonSolution sol = solver.solve(rho);
    const double scale = 1.0 / (wu * wu + wv * wv);
    for (int y = 0; y < ny; ++y)
        for (int x = 0; x < nx; ++x)
            EXPECT_NEAR(sol.potential.at(x, y), rho.at(x, y) * scale, 1e-9);
}

TEST(PoissonTest, SolvePotentialAgreesWithSolve) {
    const int n = 32;
    PoissonSolver solver(n, n);
    Rng rng(9);
    GridF rho(n, n);
    for (auto& v : rho) v = rng.uniform(0.0, 1.0);
    const PoissonSolution sol = solver.solve(rho);
    const GridF psi = solver.solve_potential(rho);
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            EXPECT_NEAR(psi.at(x, y), sol.potential.at(x, y), 1e-12);
}

GridF random_density(int nx, int ny, uint64_t seed) {
    Rng rng(seed);
    GridF rho(nx, ny);
    for (auto& v : rho) v = rng.uniform(0.0, 1.0);
    return rho;
}

TEST(PoissonWorkspaceTest, MatchesConvenienceSolveBitwise) {
    // The value-returning wrappers delegate to the workspace overloads;
    // both paths must produce identical bits.
    const int n = 32;
    PoissonSolver solver(n, n);
    const GridF rho = random_density(n, n, 21);
    const PoissonSolution by_value = solver.solve(rho);
    PoissonWorkspace ws;
    const PoissonSolution& in_place = solver.solve(rho, ws);
    EXPECT_EQ(by_value.potential, in_place.potential);
    EXPECT_EQ(by_value.field_x, in_place.field_x);
    EXPECT_EQ(by_value.field_y, in_place.field_y);
    const GridF& psi = solver.solve_potential(rho, ws);
    EXPECT_EQ(by_value.potential, psi);
}

TEST(PoissonWorkspaceTest, ReuseIsStateless) {
    // Repeated solves through one workspace (including interleaved
    // potential-only solves) must not leak state between calls.
    const int n = 16;
    PoissonSolver solver(n, n);
    const GridF r1 = random_density(n, n, 31);
    const GridF r2 = random_density(n, n, 32);
    PoissonWorkspace ws;
    GridF first_psi, first_ex;
    {
        const PoissonSolution& s = solver.solve(r1, ws);
        first_psi = s.potential;
        first_ex = s.field_x;
    }
    solver.solve(r2, ws, 3.0);
    solver.solve_potential(r2, ws);
    const PoissonSolution& again = solver.solve(r1, ws);
    EXPECT_EQ(again.potential, first_psi);
    EXPECT_EQ(again.field_x, first_ex);
}

TEST(PoissonWorkspaceTest, ChargeScaleMatchesScaledInput) {
    // charge_scale is folded into the spectral multipliers; by linearity it
    // must equal scaling the input density.
    const int n = 32;
    const double s = 1.0 / 48.0;
    PoissonSolver solver(n, n);
    const GridF rho = random_density(n, n, 41);
    GridF scaled = rho;
    grid_scale(scaled, s);
    const PoissonSolution ref = solver.solve(scaled);
    PoissonWorkspace ws;
    const PoissonSolution& got = solver.solve(rho, ws, s);
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            EXPECT_NEAR(got.potential.at(x, y), ref.potential.at(x, y), 1e-12);
            EXPECT_NEAR(got.field_x.at(x, y), ref.field_x.at(x, y), 1e-12);
            EXPECT_NEAR(got.field_y.at(x, y), ref.field_y.at(x, y), 1e-12);
        }
    }
}

TEST(PoissonWorkspaceTest, BitwiseDeterministicAcrossThreadCounts) {
    // The batched row passes and blocked transposes must be thread-count
    // invariant (deterministic chunk plans, disjoint writes).
    const int nx = 64, ny = 32;
    PoissonSolver solver(nx, ny);
    const GridF rho = random_density(nx, ny, 51);
    const int saved = par::max_threads();
    std::vector<PoissonSolution> runs;
    for (const int t : {1, 2, 7}) {
        par::set_max_threads(t);
        PoissonWorkspace ws;
        runs.push_back(solver.solve(rho, ws));
    }
    par::set_max_threads(saved);
    for (size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[0].potential, runs[i].potential) << "run " << i;
        EXPECT_EQ(runs[0].field_x, runs[i].field_x) << "run " << i;
        EXPECT_EQ(runs[0].field_y, runs[i].field_y) << "run " << i;
    }
}

TEST(PoissonWorkspaceTest, BandPlanKeepsBitsAcrossThreadCounts) {
    // Bands hold at least 64 rows: 32² and 64² solve on the calling thread,
    // 128² in 2 bands and 256² in 4. Any thread count gives the same bits.
    const int saved = par::max_threads();
    for (const int n : {32, 64, 128, 256}) {
        PoissonSolver solver(n, n);
        const GridF rho = random_density(n, n, 70u + static_cast<unsigned>(n));
        std::vector<PoissonSolution> runs;
        for (const int t : {1, 2, 3, 4, 7}) {
            par::set_max_threads(t);
            PoissonWorkspace ws;
            runs.push_back(solver.solve(rho, ws, 0.5));
        }
        const auto same_bits = [](const GridF& a, const GridF& b) {
            return a.size() == b.size() &&
                   std::memcmp(a.data(), b.data(),
                               a.size() * sizeof(double)) == 0;
        };
        for (size_t i = 1; i < runs.size(); ++i) {
            EXPECT_TRUE(same_bits(runs[0].potential, runs[i].potential))
                << n << "² run " << i;
            EXPECT_TRUE(same_bits(runs[0].field_x, runs[i].field_x))
                << n << "² run " << i;
            EXPECT_TRUE(same_bits(runs[0].field_y, runs[i].field_y))
                << n << "² run " << i;
        }
    }
    par::set_max_threads(saved);
}

// Full-solution reference built from the O(N^2) naive transforms with the
// textbook (non-transposed, non-fused) pass structure — anchors the
// transpose-blocked pipeline end to end, including rectangular grids.
PoissonSolution naive_solve(const GridF& rho_in) {
    const int w = rho_in.width(), h = rho_in.height();
    GridF rho = rho_in;
    const double mean = grid_mean(rho);
    for (auto& v : rho) v -= mean;

    auto rows = [&](const GridF& g, auto&& f) {
        GridF out(g.width(), g.height());
        for (int y = 0; y < g.height(); ++y) {
            std::vector<double> buf(static_cast<size_t>(g.width()));
            for (int x = 0; x < g.width(); ++x)
                buf[static_cast<size_t>(x)] = g.at(x, y);
            const std::vector<double> res = f(buf);
            for (int x = 0; x < g.width(); ++x)
                out.at(x, y) = res[static_cast<size_t>(x)];
        }
        return out;
    };
    auto cols = [&](const GridF& g, auto&& f) {
        GridF out(g.width(), g.height());
        for (int x = 0; x < g.width(); ++x) {
            std::vector<double> buf(static_cast<size_t>(g.height()));
            for (int y = 0; y < g.height(); ++y)
                buf[static_cast<size_t>(y)] = g.at(x, y);
            const std::vector<double> res = f(buf);
            for (int y = 0; y < g.height(); ++y)
                out.at(x, y) = res[static_cast<size_t>(y)];
        }
        return out;
    };

    const GridF coeffs = cols(rows(rho, naive::dct2), naive::dct2);
    GridF c(w, h), cx(w, h), cy(w, h);
    for (int v = 0; v < h; ++v) {
        const double wv = M_PI * v / h;
        for (int u = 0; u < w; ++u) {
            const double wu = M_PI * u / w;
            const double denom = wu * wu + wv * wv;
            const double pu = (u == 0) ? 1.0 : 2.0;
            const double pv = (v == 0) ? 1.0 : 2.0;
            const double a = coeffs.at(u, v) * pu * pv / (w * h);
            c.at(u, v) = denom > 0.0 ? a / denom : 0.0;
            cx.at(u, v) = c.at(u, v) * wu;
            cy.at(u, v) = c.at(u, v) * wv;
        }
    }
    PoissonSolution sol;
    sol.potential = cols(rows(c, naive::dct3), naive::dct3);
    sol.field_x = cols(rows(cx, naive::idxst), naive::dct3);
    sol.field_y = cols(rows(cy, naive::dct3), naive::idxst);
    return sol;
}

class PoissonNaiveAnchor
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PoissonNaiveAnchor, FastSolveMatchesNaiveReference) {
    const auto [nx, ny] = GetParam();
    PoissonSolver solver(nx, ny);
    const GridF rho = random_density(nx, ny, 6100 + 97u * nx + ny);
    PoissonWorkspace ws;
    const PoissonSolution& got = solver.solve(rho, ws);
    const PoissonSolution want = naive_solve(rho);
    for (int y = 0; y < ny; ++y) {
        for (int x = 0; x < nx; ++x) {
            EXPECT_NEAR(got.potential.at(x, y), want.potential.at(x, y), 1e-9)
                << "(" << x << "," << y << ")";
            EXPECT_NEAR(got.field_x.at(x, y), want.field_x.at(x, y), 1e-9)
                << "(" << x << "," << y << ")";
            EXPECT_NEAR(got.field_y.at(x, y), want.field_y.at(x, y), 1e-9)
                << "(" << x << "," << y << ")";
        }
    }
}

// Rectangular grids in both aspect directions plus degenerate small sizes
// (2x2 is the smallest legal solver; 4x2 / 2x8 exercise the n == 2 and
// transposed-layout edge paths).
INSTANTIATE_TEST_SUITE_P(Grids, PoissonNaiveAnchor,
                         ::testing::Values(std::pair{2, 2}, std::pair{4, 2},
                                           std::pair{2, 8}, std::pair{16, 8},
                                           std::pair{8, 32}));

}  // namespace
}  // namespace rdp
