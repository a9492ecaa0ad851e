#include "fft/fft.hpp"

#include <cassert>
#include <cmath>
#include <memory>
#include <mutex>

#include "fft/fft_kernel.hpp"
#include "util/simd.hpp"
#include "util/thread_annotations.hpp"

namespace rdp {

int next_pow2(int n) {
    int p = 1;
    while (p < n) p <<= 1;
    return p;
}

FftPlan::FftPlan(int n) : n_(n), rev_(static_cast<size_t>(n)) {
    assert(is_pow2(n));
    for (int i = 1; i < n; ++i)
        rev_[static_cast<size_t>(i)] =
            (rev_[static_cast<size_t>(i >> 1)] >> 1) | ((i & 1) ? n >> 1 : 0);
    tw_.resize(static_cast<size_t>(n / 2));
    // Each twiddle from its own cos/sin evaluation: the table is exact to
    // ulp, unlike the repeated-multiplication recurrence it replaces.
    for (int k = 0; k < n / 2; ++k) {
        const double ang = -2.0 * M_PI * k / n;
        tw_[static_cast<size_t>(k)] = {std::cos(ang), std::sin(ang)};
    }
    // Per-stage lane-duplicated twiddle tables for the vectorized stages
    // (len >= 8): each real component is stored twice ([wr0 wr0 wr1 wr1]
    // ...) and each imaginary component twice with alternating signs
    // ([-wi0 wi0 -wi1 wi1] ...), so the interleaved-complex butterfly is a
    // plain multiply + add per vector — the sign alternation folds the
    // complex multiply's subtract into the table. (An explicit addsub op
    // would invite the x86 backend to fuse mul+addsub into vfmaddsub,
    // which ignores -ffp-contract=off and breaks cross-backend bitwise
    // identity.) Stage at offset len - 8, 2 * half = len doubles per stage.
    if (n >= 8) {
        stw_re_.resize(2 * static_cast<size_t>(n) - 8);
        stw_im_.resize(2 * static_cast<size_t>(n) - 8);
        for (int len = 8; len <= n; len <<= 1) {
            const int half = len >> 1;
            const int stride = n / len;
            double* re = stw_re_.data() + (len - 8);
            double* im = stw_im_.data() + (len - 8);
            for (int j = 0; j < half; ++j) {
                const Complex& w = tw_[static_cast<size_t>(j * stride)];
                re[2 * j] = re[2 * j + 1] = w.real();
                im[2 * j] = -w.imag();
                im[2 * j + 1] = w.imag();
            }
        }
    }
}

void FftPlan::forward(Complex* a) const {
    transform_with<simd::VecD, false>(a);
}
void FftPlan::inverse(Complex* a) const {
    transform_with<simd::VecD, true>(a);
}

namespace {

// Plans keyed by log2(size): at most 31 distinct sizes, stable addresses.
// The slot array is written only under `mu`; the plans themselves are
// immutable after construction, so references handed out past the lock
// stay valid and race-free.
struct PlanCache {
    std::mutex mu;
    std::unique_ptr<FftPlan> plans[32] GUARDED_BY(mu);
};

PlanCache& plan_cache() {
    static PlanCache cache;
    return cache;
}

int log2_pow2(int n) {
    int l = 0;
    while ((1 << l) < n) ++l;
    return l;
}

}  // namespace

const FftPlan& fft_plan(int n) {
    assert(is_pow2(n));
    PlanCache& cache = plan_cache();
    const int slot = log2_pow2(n);
    std::lock_guard<std::mutex> lock(cache.mu);
    if (!cache.plans[slot]) cache.plans[slot] = std::make_unique<FftPlan>(n);
    return *cache.plans[slot];
}

}  // namespace rdp
