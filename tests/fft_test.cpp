// Tests for the FFT and fast cosine/sine transforms, including
// property-style parameterized sweeps against naive O(N^2) references.

#include <gtest/gtest.h>

#include <cmath>

#include "fft/dct.hpp"
#include "fft/fft.hpp"
#include "util/rng.hpp"

namespace rdp {
namespace {

std::vector<double> random_signal(int n, uint64_t seed) {
    Rng rng(seed);
    std::vector<double> x(static_cast<size_t>(n));
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);
    return x;
}

TEST(FftTest, Pow2Helpers) {
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(64));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(12));
    EXPECT_EQ(next_pow2(1), 1);
    EXPECT_EQ(next_pow2(33), 64);
    EXPECT_EQ(next_pow2(64), 64);
}

TEST(FftTest, KnownDft4) {
    std::vector<Complex> a = {1.0, 2.0, 3.0, 4.0};
    fft_plan(4).forward(a.data());
    EXPECT_NEAR(a[0].real(), 10.0, 1e-12);
    EXPECT_NEAR(a[0].imag(), 0.0, 1e-12);
    EXPECT_NEAR(a[1].real(), -2.0, 1e-12);
    EXPECT_NEAR(a[1].imag(), 2.0, 1e-12);
    EXPECT_NEAR(a[2].real(), -2.0, 1e-12);
    EXPECT_NEAR(a[3].imag(), -2.0, 1e-12);
}

TEST(FftTest, SingleToneBin) {
    // x[n] = cos(2 pi 3 n / N) has energy only in bins 3 and N-3.
    const int n = 32;
    std::vector<Complex> a(n);
    for (int i = 0; i < n; ++i) a[i] = std::cos(2.0 * M_PI * 3 * i / n);
    fft_plan(n).forward(a.data());
    for (int k = 0; k < n; ++k) {
        const double mag = std::abs(a[k]);
        if (k == 3 || k == n - 3)
            EXPECT_NEAR(mag, n / 2.0, 1e-9) << "bin " << k;
        else
            EXPECT_NEAR(mag, 0.0, 1e-9) << "bin " << k;
    }
}

TEST(FftPlanTest, CacheReturnsOneInstancePerSize) {
    const FftPlan& a = fft_plan(64);
    const FftPlan& b = fft_plan(64);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.size(), 64);
    EXPECT_NE(&a, &fft_plan(128));
}

TEST(FftPlanTest, ForwardMatchesNaiveDft) {
    const int n = 16;
    const auto xr = random_signal(n, 42);
    const auto xi = random_signal(n, 43);
    std::vector<Complex> a(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) a[static_cast<size_t>(i)] = {xr[i], xi[i]};

    std::vector<Complex> ref(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k)
        for (int j = 0; j < n; ++j)
            ref[static_cast<size_t>(k)] +=
                a[static_cast<size_t>(j)] *
                std::polar(1.0, -2.0 * M_PI * k * j / n);

    fft_plan(n).forward(a.data());
    for (int k = 0; k < n; ++k) {
        EXPECT_NEAR(a[k].real(), ref[k].real(), 1e-10) << "bin " << k;
        EXPECT_NEAR(a[k].imag(), ref[k].imag(), 1e-10) << "bin " << k;
    }
}

TEST(FftPlanTest, InPlaceRoundTrip) {
    const int n = 256;
    const FftPlan& plan = fft_plan(n);
    const auto x = random_signal(n, 44);
    std::vector<Complex> a(x.begin(), x.end());
    plan.forward(a.data());
    plan.inverse(a.data());
    for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(a[i].real(), x[i], 1e-10);
        EXPECT_NEAR(a[i].imag(), 0.0, 1e-10);
    }
}

class FftRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FftRoundTrip, InverseRecoversInput) {
    const int n = GetParam();
    const auto x = random_signal(n, 1000 + n);
    std::vector<Complex> a(x.begin(), x.end());
    fft_plan(n).forward(a.data());
    fft_plan(n).inverse(a.data());
    for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(a[i].real(), x[i], 1e-10);
        EXPECT_NEAR(a[i].imag(), 0.0, 1e-10);
    }
}

TEST_P(FftRoundTrip, Parseval) {
    const int n = GetParam();
    const auto x = random_signal(n, 2000 + n);
    std::vector<Complex> a(x.begin(), x.end());
    fft_plan(n).forward(a.data());
    double time_e = 0.0, freq_e = 0.0;
    for (double v : x) time_e += v * v;
    for (const Complex& c : a) freq_e += std::norm(c);
    EXPECT_NEAR(freq_e, n * time_e, 1e-6 * n * time_e + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

class DctAgainstNaive : public ::testing::TestWithParam<int> {};

TEST_P(DctAgainstNaive, Dct2MatchesNaive) {
    const int n = GetParam();
    const auto x = random_signal(n, 3000 + n);
    const auto fast = dct2(x);
    const auto ref = naive::dct2(x);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(fast[i], ref[i], 1e-8);
}

TEST_P(DctAgainstNaive, Dct3MatchesNaive) {
    const int n = GetParam();
    const auto a = random_signal(n, 4000 + n);
    const auto fast = dct3(a);
    const auto ref = naive::dct3(a);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(fast[i], ref[i], 1e-8);
}

TEST_P(DctAgainstNaive, IdxstMatchesNaive) {
    const int n = GetParam();
    const auto b = random_signal(n, 5000 + n);
    const auto fast = idxst(b);
    const auto ref = naive::idxst(b);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(fast[i], ref[i], 1e-8);
}

TEST_P(DctAgainstNaive, Idct2IsExactInverse) {
    const int n = GetParam();
    const auto x = random_signal(n, 6000 + n);
    const auto back = idct2(dct2(x));
    for (int i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
}

TEST_P(DctAgainstNaive, Dct3OfDct2IsScaledShiftedIdentity) {
    // From DCT-II/III orthogonality: dct3(dct2(x))[i] = (n/2) x[i] +
    // (sum x)/2 — a sharp end-to-end check of both fast transforms.
    const int n = GetParam();
    const auto x = random_signal(n, 7000 + n);
    double total = 0.0;
    for (double v : x) total += v;
    const auto y = dct3(dct2(x));
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(y[i], 0.5 * n * x[i] + 0.5 * total, 1e-8 * n);
}

// Every power of two through 1024 — both 1D lengths a pow-2 placement grid
// up to 1024x1024 can feed the solver, including the rectangular W != H
// combinations (each axis is transformed independently).
INSTANTIATE_TEST_SUITE_P(Sizes, DctAgainstNaive,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512,
                                           1024));

TEST(DctTest, Dct2OfConstant) {
    // DCT-II of a constant: X[0] = N*c, X[k>0] = 0.
    const std::vector<double> x(16, 3.0);
    const auto X = dct2(x);
    EXPECT_NEAR(X[0], 48.0, 1e-10);
    for (int k = 1; k < 16; ++k) EXPECT_NEAR(X[k], 0.0, 1e-10);
}

TEST(DctTest, Dct3EvaluatesCosineSeries) {
    // a has a single mode k=2: dct3(a)[n] = cos(pi 2 (2n+1) / (2N)).
    const int n = 8;
    std::vector<double> a(n, 0.0);
    a[2] = 1.0;
    const auto y = dct3(a);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(y[i], std::cos(M_PI * 2 * (2 * i + 1) / (2.0 * n)), 1e-10);
}

TEST(DctTest, IdxstEvaluatesSineSeries) {
    const int n = 8;
    std::vector<double> b(n, 0.0);
    b[3] = 2.0;
    const auto y = idxst(b);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(y[i], 2.0 * std::sin(M_PI * 3 * (2 * i + 1) / (2.0 * n)),
                    1e-10);
}

TEST(DctTest, LinearityOfDct2) {
    const auto x = random_signal(32, 71);
    const auto y = random_signal(32, 72);
    std::vector<double> z(32);
    for (int i = 0; i < 32; ++i) z[i] = 2.0 * x[i] - 3.0 * y[i];
    const auto X = dct2(x), Y = dct2(y), Z = dct2(z);
    for (int i = 0; i < 32; ++i)
        EXPECT_NEAR(Z[i], 2.0 * X[i] - 3.0 * Y[i], 1e-9);
}


class DctWorkspaceSweep : public ::testing::TestWithParam<int> {};

TEST_P(DctWorkspaceSweep, MatchesOutOfPlaceTransforms) {
    // The allocation-free workspace must agree with the reference
    // out-of-place functions for every transform kind.
    const int n = GetParam();
    DctWorkspace ws(n);
    EXPECT_EQ(ws.size(), n);
    const auto x = random_signal(n, 9000 + n);

    auto check = [&](auto&& apply, const std::vector<double>& expect) {
        std::vector<double> buf = x;
        apply(buf.data());
        for (int i = 0; i < n; ++i) EXPECT_NEAR(buf[i], expect[i], 1e-9);
    };
    check([&](double* p) { ws.dct2(p); }, dct2(x));
    check([&](double* p) { ws.idct2(p); }, idct2(x));
    check([&](double* p) { ws.dct3(p); }, dct3(x));
    check([&](double* p) { ws.idxst(p); }, idxst(x));
}

TEST_P(DctWorkspaceSweep, RepeatedUseIsStateless) {
    // Reusing the workspace must not leak state between calls.
    const int n = GetParam();
    DctWorkspace ws(n);
    const auto x = random_signal(n, 9100 + n);
    std::vector<double> a = x, b = x;
    ws.dct2(a.data());
    ws.idxst(b.data());  // interleave another kind
    std::vector<double> c = x;
    ws.dct2(c.data());
    for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(a[i], c[i]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DctWorkspaceSweep,
                         ::testing::Values(2, 8, 64, 256));

TEST(DctWorkspaceTest, RoundTrip) {
    const int n = 128;
    DctWorkspace ws(n);
    const auto x = random_signal(n, 77);
    std::vector<double> buf = x;
    ws.dct2(buf.data());
    ws.idct2(buf.data());
    for (int i = 0; i < n; ++i) EXPECT_NEAR(buf[i], x[i], 1e-9);
}

}  // namespace
}  // namespace rdp
