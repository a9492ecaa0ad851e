#pragma once
// Vectorized core of the one-dimensional weighted-average wirelength
// (the exp/weight and gradient loops of wa_model.cpp, DESIGN.md §14).
//
// Templated on the SIMD vector type so the production build instantiates
// the active simd::VecD while tests and benches also instantiate
// simd::ScalarVecD in the same binary and compare results bitwise.
//
// Determinism: every pass uses a fixed 4-lane structure. The min/max scan
// folds lane-wise then reduces lanes in index order; pass 1 keeps
// lane-private partial sums that are combined with reduce_add's fixed tree,
// and the tail group contributes through zeroed weight lanes — so the bits
// depend only on (xs, n, gamma), never on the backend or thread count
// (chunking lives one level up in WAWirelength::evaluate and is untouched).
// Pass 2 is purely elementwise in the same per-element op order on every
// backend, hence bit-identical by construction.
//
// The divisions of the pre-SIMD loop are replaced by multiplies with
// precomputed reciprocals (1/gamma, 1/sum): ~1 ulp different from the
// division form, well inside the WA model's smooth-max approximation
// tolerance, and worth ~25% of the kernel (vdivpd does not pipeline).

#include <cstddef>

#include "util/simd.hpp"

namespace rdp::wa {

/// Weight-buffer capacity needed for n coordinates: the last partial lane
/// group is stored as a full vector (dead lanes hold +0.0), so callers pad
/// the wp/wm scratch to the next multiple of the lane width.
inline size_t padded_size(size_t n) {
    constexpr size_t lanes = static_cast<size_t>(simd::kLanes);
    return (n + lanes - 1) & ~(lanes - 1);
}

/// 1D WA and gradient for n >= 2 pin coordinates. wp/wm must have capacity
/// >= padded_size(n); grad has length n. Returns smooth-max minus
/// smooth-min; grad[j] = d(WA_1d)/d(xs[j]).
template <typename V>
double wa_1d_core(const double* xs, size_t n, double gamma, double* wp,
                  double* wm, double* grad) {
    constexpr size_t lanes = static_cast<size_t>(simd::kLanes);

    // Min/max scan: lane-wise folds, lanes reduced in index order. Min and
    // max are associative and commutative over placement coordinates (the
    // one order-sensitive case, a +0.0 / -0.0 tie, still yields identical
    // weights: exp(±0/g) == 1.0 either way), so the vector fold matches the
    // sequential scan bit for bit.
    double xmax = xs[0], xmin = xs[0];
    size_t i = 1;
    if (n >= lanes) {
        V vmx = V::loadu(xs);
        V vmn = vmx;
        for (i = lanes; i + lanes <= n; i += lanes) {
            const V x = V::loadu(xs + i);
            vmx = vmax(vmx, x);
            vmn = vmin(vmn, x);
        }
        double mx[lanes], mn[lanes];
        vmx.storeu(mx);
        vmn.storeu(mn);
        xmax = mx[0];
        xmin = mn[0];
        for (size_t l = 1; l < lanes; ++l) {
            xmax = mx[l] > xmax ? mx[l] : xmax;
            xmin = mn[l] < xmin ? mn[l] : xmin;
        }
    }
    for (; i < n; ++i) {
        xmax = xs[i] > xmax ? xs[i] : xmax;
        xmin = xs[i] < xmin ? xs[i] : xmin;
    }

    // Pass 1: weights e^{(x-xmax)/g} / e^{(xmin-x)/g} plus the four sums.
    const double inv_gamma = 1.0 / gamma;
    const V vinvg = V::set1(inv_gamma);
    const V vxmax = V::set1(xmax);
    const V vxmin = V::set1(xmin);
    V sp_v = V::zero(), ap_v = V::zero();  // max side: sum w, sum x*w
    V sm_v = V::zero(), am_v = V::zero();  // min side
    i = 0;
    for (; i + lanes <= n; i += lanes) {
        const V x = V::loadu(xs + i);
        const V wpv = simd::stable_exp((x - vxmax) * vinvg);
        const V wmv = simd::stable_exp((vxmin - x) * vinvg);
        wpv.storeu(wp + i);
        wmv.storeu(wm + i);
        sp_v = sp_v + wpv;
        ap_v = mul_add(x, wpv, ap_v);
        sm_v = sm_v + wmv;
        am_v = mul_add(x, wmv, am_v);
    }
    if (i < n) {
        const int m = static_cast<int>(n - i);
        const V x = V::load_partial(xs + i, m);
        // Dead lanes get weight +0.0, so they add exactly nothing to the
        // sums and the bits match any other (backend, n) combination.
        const V wpv = zero_tail(simd::stable_exp((x - vxmax) * vinvg), m);
        const V wmv = zero_tail(simd::stable_exp((vxmin - x) * vinvg), m);
        wpv.storeu(wp + i);  // full store into the padded scratch
        wmv.storeu(wm + i);
        sp_v = sp_v + wpv;
        ap_v = mul_add(x, wpv, ap_v);
        sm_v = sm_v + wmv;
        am_v = mul_add(x, wmv, am_v);
    }
    const double sp = reduce_add(sp_v), ap = reduce_add(ap_v);
    const double sm = reduce_add(sm_v), am = reduce_add(am_v);
    const double fp = ap / sp;  // smooth max
    const double fm = am / sm;  // smooth min

    // Pass 2 (elementwise):
    //   d fp / d x_j = (w_j / sp) (1 + (x_j - fp)/g)
    //   d fm / d x_j = (w_j / sm) (1 - (x_j - fm)/g)
    const double inv_sp = 1.0 / sp, inv_sm = 1.0 / sm;
    const V visp = V::set1(inv_sp), vism = V::set1(inv_sm);
    const V vfp = V::set1(fp), vfm = V::set1(fm);
    const V one = V::set1(1.0);
    i = 0;
    for (; i + lanes <= n; i += lanes) {
        const V x = V::loadu(xs + i);
        const V dp = (V::loadu(wp + i) * visp) * (one + (x - vfp) * vinvg);
        const V dm = (V::loadu(wm + i) * vism) * (one - (x - vfm) * vinvg);
        (dp - dm).storeu(grad + i);
    }
    for (; i < n; ++i) {
        const double dp = (wp[i] * inv_sp) * (1.0 + (xs[i] - fp) * inv_gamma);
        const double dm = (wm[i] * inv_sm) * (1.0 - (xs[i] - fm) * inv_gamma);
        grad[i] = dp - dm;
    }
    return fp - fm;
}

/// Lane-per-net form of wa_1d_core for nets of degree N (2 <= N <= 4):
/// x[j] holds pin j of four nets, one net per lane. Writes
/// grad[j] = d(WA_1d)/d(x[j]) and returns smooth-max minus smooth-min, per
/// lane.
///
/// Each lane repeats wa_1d_core's arithmetic for its net op for op, so the
/// bits equal wa_1d_core's on every backend. For n <= 4 that core keeps
/// pin j in lane j of one vector: its min/max fold reduces to the scan
/// below, its exp/sum pass gives pin j's lane (0 + w_j, x_j * w_j + 0)
/// and +0.0 in the dead lanes N..3, and reduce_add then sums the lanes as
/// (l0 + l2) + (l1 + l3). Pass 2 is elementwise in both.
template <typename V, int N>
V wa_lanes(const V (&x)[N], double gamma, V (&grad)[N]) {
    static_assert(N >= 2 && N <= simd::kLanes);
    V xmax = x[0], xmin = x[0];
    for (int j = 1; j < N; ++j) {
        xmax = vmax(x[j], xmax);  // xs[j] > xmax ? xs[j] : xmax
        xmin = vmin(x[j], xmin);
    }

    const double inv_gamma = 1.0 / gamma;
    const V vinvg = V::set1(inv_gamma);
    V wp[N], wm[N];
    // Per-pin lanes of wa_1d_core's four sum vectors; dead pins stay +0.0.
    V sp[simd::kLanes], ap[simd::kLanes], sm[simd::kLanes], am[simd::kLanes];
    for (int j = 0; j < simd::kLanes; ++j)
        sp[j] = ap[j] = sm[j] = am[j] = V::zero();
    for (int j = 0; j < N; ++j) {
        wp[j] = simd::stable_exp((x[j] - xmax) * vinvg);
        wm[j] = simd::stable_exp((xmin - x[j]) * vinvg);
        sp[j] = V::zero() + wp[j];
        ap[j] = mul_add(x[j], wp[j], V::zero());
        sm[j] = V::zero() + wm[j];
        am[j] = mul_add(x[j], wm[j], V::zero());
    }
    const auto tree = [](const V (&l)[simd::kLanes]) {
        return (l[0] + l[2]) + (l[1] + l[3]);
    };
    const V vsp = tree(sp), vap = tree(ap);
    const V vsm = tree(sm), vam = tree(am);
    const V fp = vap / vsp;  // smooth max
    const V fm = vam / vsm;  // smooth min

    const V one = V::set1(1.0);
    const V visp = one / vsp, vism = one / vsm;
    for (int j = 0; j < N; ++j) {
        const V dp = (wp[j] * visp) * (one + (x[j] - fp) * vinvg);
        const V dm = (wm[j] * vism) * (one - (x[j] - fm) * vinvg);
        grad[j] = dp - dm;
    }
    return fp - fm;
}

}  // namespace rdp::wa
