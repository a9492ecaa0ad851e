#pragma once
// Portable fixed-width SIMD wrapper for the hot placement kernels
// (DESIGN.md §14).
//
// One logical vector shape — kLanes = 4 doubles — implemented by three
// backends selected at build time via the RDP_SIMD CMake option:
//
//   RDP_SIMD_BACKEND == 0   ScalarVecD  four-lane scalar emulation (any ISA)
//   RDP_SIMD_BACKEND == 1   Avx2VecD    one __m256d             (x86-64 AVX2)
//   RDP_SIMD_BACKEND == 2   NeonVecD    two float64x2_t         (AArch64 NEON)
//
// `VecD` aliases the active backend. ScalarVecD is always compiled, so tests
// and benches can instantiate a kernel template with both types in one binary
// and compare results lane for lane.
//
// Determinism contract — all backends produce bitwise-identical results:
//  * add/sub/mul/div and fused multiply-add are correctly rounded IEEE-754
//    ops, so an identical op sequence gives identical bits on every ISA;
//  * vmin/vmax and and_gt_zero are defined as compare+select with x86
//    minpd/maxpd operand semantics ((a<b)?a:b resp. (a>b)?a:b, second operand
//    on NaN); the NEON backend uses explicit compare+bit-select rather than
//    FMIN/FMAX, whose ±0/NaN handling differs;
//  * vneg flips the sign bit, matching unary minus on ±0;
//  * reduce_add uses one fixed tree, (l0 + l2) + (l1 + l3), everywhere;
//  * the lane width is fixed at 4 on every backend, so lane-structured
//    reductions partition an index range identically everywhere.
//
// Fused multiply-add comes in two tiers. fmadd() is *always* fused and is
// used only inside stable_exp, whose scalar twin fuses identically via
// std::fma. mul_add()/mul_sub()/nmul_add() fuse only when the RDP_SIMD_FMA
// CMake option is ON; the default OFF expands them into separately rounded
// multiply then add, which keeps the vector kernels bit-identical to the
// pre-SIMD scalar code. The build also disables implicit FP contraction
// globally (-ffp-contract=off in CMakeLists.txt) so the compiler cannot
// fuse differently per backend behind our back.

#include <bit>
#include <cmath>
#include <cstdint>

#ifndef RDP_SIMD_BACKEND
#define RDP_SIMD_BACKEND 0
#endif

#if RDP_SIMD_BACKEND == 1
#include <immintrin.h>
#elif RDP_SIMD_BACKEND == 2
#include <arm_neon.h>
#endif

namespace rdp::simd {

/// Logical lane count of every backend (f64 lanes).
inline constexpr int kLanes = 4;

/// Human-readable name of the active backend ("avx2", "neon", or "scalar").
/// This is the runtime-readable face of the build-time RDP_SIMD knob; the
/// global placer logs it and the micro-bench JSON records it as context.
const char* backend_name();

/// True when the RDP_SIMD_FMA tolerance-gated fast path is compiled in.
bool fma_enabled();

// ---------------------------------------------------------------------------
// ScalarVecD: the reference backend. Every other backend must match it
// bit for bit (tests/simd_test.cpp enforces this op by op).
// ---------------------------------------------------------------------------

struct ScalarVecD {
    double l[4];

    static ScalarVecD zero() { return {{0.0, 0.0, 0.0, 0.0}}; }
    static ScalarVecD set1(double v) { return {{v, v, v, v}}; }
    static ScalarVecD iota() { return {{0.0, 1.0, 2.0, 3.0}}; }
    static ScalarVecD loadu(const double* p) {
        return {{p[0], p[1], p[2], p[3]}};
    }
    /// First `m` lanes from p (0 < m <= 4), remaining lanes +0.0. Never
    /// reads past p[m-1].
    static ScalarVecD load_partial(const double* p, int m) {
        ScalarVecD r = zero();
        for (int i = 0; i < m; ++i) r.l[i] = p[i];
        return r;
    }

    void storeu(double* p) const {
        p[0] = l[0];
        p[1] = l[1];
        p[2] = l[2];
        p[3] = l[3];
    }
    /// Writes only the first `m` lanes (0 < m <= 4).
    void store_partial(double* p, int m) const {
        for (int i = 0; i < m; ++i) p[i] = l[i];
    }

    friend ScalarVecD operator+(ScalarVecD a, ScalarVecD b) {
        return {{a.l[0] + b.l[0], a.l[1] + b.l[1], a.l[2] + b.l[2],
                 a.l[3] + b.l[3]}};
    }
    friend ScalarVecD operator-(ScalarVecD a, ScalarVecD b) {
        return {{a.l[0] - b.l[0], a.l[1] - b.l[1], a.l[2] - b.l[2],
                 a.l[3] - b.l[3]}};
    }
    friend ScalarVecD operator*(ScalarVecD a, ScalarVecD b) {
        return {{a.l[0] * b.l[0], a.l[1] * b.l[1], a.l[2] * b.l[2],
                 a.l[3] * b.l[3]}};
    }
    friend ScalarVecD operator/(ScalarVecD a, ScalarVecD b) {
        return {{a.l[0] / b.l[0], a.l[1] / b.l[1], a.l[2] / b.l[2],
                 a.l[3] / b.l[3]}};
    }

    /// Sign-bit flip (exact, matches unary minus on every value incl. ±0).
    friend ScalarVecD vneg(ScalarVecD a) {
        return {{-a.l[0], -a.l[1], -a.l[2], -a.l[3]}};
    }
    /// (a < b) ? a : b per lane — x86 minpd semantics (b on NaN).
    friend ScalarVecD vmin(ScalarVecD a, ScalarVecD b) {
        ScalarVecD r;
        for (int i = 0; i < 4; ++i) r.l[i] = a.l[i] < b.l[i] ? a.l[i] : b.l[i];
        return r;
    }
    /// (a > b) ? a : b per lane — x86 maxpd semantics (b on NaN).
    friend ScalarVecD vmax(ScalarVecD a, ScalarVecD b) {
        ScalarVecD r;
        for (int i = 0; i < 4; ++i) r.l[i] = a.l[i] > b.l[i] ? a.l[i] : b.l[i];
        return r;
    }
    /// a*b + c with a single rounding. Always fused on every backend.
    friend ScalarVecD fmadd(ScalarVecD a, ScalarVecD b, ScalarVecD c) {
        ScalarVecD r;
        for (int i = 0; i < 4; ++i) r.l[i] = std::fma(a.l[i], b.l[i], c.l[i]);
        return r;
    }
    /// a*b + c; fused only under RDP_SIMD_FMA (default: two rounded ops).
    friend ScalarVecD mul_add(ScalarVecD a, ScalarVecD b, ScalarVecD c) {
#if defined(RDP_SIMD_FMA)
        return fmadd(a, b, c);
#else
        return a * b + c;
#endif
    }
    /// a*b - c; fused only under RDP_SIMD_FMA.
    friend ScalarVecD mul_sub(ScalarVecD a, ScalarVecD b, ScalarVecD c) {
#if defined(RDP_SIMD_FMA)
        ScalarVecD r;
        for (int i = 0; i < 4; ++i) r.l[i] = std::fma(a.l[i], b.l[i], -c.l[i]);
        return r;
#else
        return a * b - c;
#endif
    }
    /// c - a*b; fused only under RDP_SIMD_FMA.
    friend ScalarVecD nmul_add(ScalarVecD a, ScalarVecD b, ScalarVecD c) {
#if defined(RDP_SIMD_FMA)
        ScalarVecD r;
        for (int i = 0; i < 4; ++i) r.l[i] = std::fma(-a.l[i], b.l[i], c.l[i]);
        return r;
#else
        return c - a * b;
#endif
    }
    /// v where c > 0, else +0.0 (also +0.0 where c is NaN).
    friend ScalarVecD and_gt_zero(ScalarVecD c, ScalarVecD v) {
        ScalarVecD r;
        for (int i = 0; i < 4; ++i) r.l[i] = c.l[i] > 0.0 ? v.l[i] : 0.0;
        return r;
    }
    /// Lanes >= m replaced by +0.0 (0 < m <= 4).
    friend ScalarVecD zero_tail(ScalarVecD v, int m) {
        ScalarVecD r = v;
        for (int i = m; i < 4; ++i) r.l[i] = 0.0;
        return r;
    }
    /// Horizontal sum with the canonical fixed tree (l0 + l2) + (l1 + l3).
    friend double reduce_add(ScalarVecD a) {
        return (a.l[0] + a.l[2]) + (a.l[1] + a.l[3]);
    }
    /// {l3, l2, l1, l0}.
    friend ScalarVecD reverse_lanes(ScalarVecD a) {
        return {{a.l[3], a.l[2], a.l[1], a.l[0]}};
    }
    /// Split 8 interleaved doubles p[0..7] into even = {p0,p2,p4,p6} and
    /// odd = {p1,p3,p5,p7} (complex re/im deinterleave).
    friend void deinterleave2(const double* p, ScalarVecD& even,
                              ScalarVecD& odd) {
        even = {{p[0], p[2], p[4], p[6]}};
        odd = {{p[1], p[3], p[5], p[7]}};
    }
    /// Inverse of deinterleave2: writes p[2i] = even[i], p[2i+1] = odd[i].
    ///
    /// Both inputs pass an optimization barrier first. Interleaving puts a
    /// lane of one vector next to the same lane of the other; when those
    /// are a difference and a sum of products (the DCT's complex rotations),
    /// GCC's SLP vectorizer at -O3 rewrites the pair into one vfmaddsub and
    /// fuses the multiplies despite -ffp-contract=off. The vector backends
    /// compute each input as a whole register and never see that shape, so
    /// without the barrier the scalar reference drifts from them by an ulp.
    friend void interleave2(double* p, ScalarVecD even, ScalarVecD odd) {
#if defined(__GNUC__)
        __asm__("" : "+m"(even.l), "+m"(odd.l));
#endif
        for (int i = 0; i < 4; ++i) {
            p[2 * i] = even.l[i];
            p[2 * i + 1] = odd.l[i];
        }
    }
    /// {l1, l0, l3, l2}: swaps the halves of each 128-bit pair — the re/im
    /// swap of two interleaved complex values.
    friend ScalarVecD swap_pairs(ScalarVecD a) {
        return {{a.l[1], a.l[0], a.l[3], a.l[2]}};
    }
    /// {a0 - b0, a1 + b1, a2 - b2, a3 + b3}: with swap_pairs this is the
    /// interleaved complex multiply (x86 addsubpd). Plain IEEE add/sub per
    /// lane, so it is exact and backend-identical.
    friend ScalarVecD addsub(ScalarVecD a, ScalarVecD b) {
        return {{a.l[0] - b.l[0], a.l[1] + b.l[1], a.l[2] - b.l[2],
                 a.l[3] + b.l[3]}};
    }
    /// 2^k per lane, where t = kExpShift + k came from the magic-number
    /// rounding inside stable_exp (k an integer, |k| <= 1023).
    friend ScalarVecD pow2_from_shifted(ScalarVecD t);
};

// ---------------------------------------------------------------------------
// Avx2VecD: one 256-bit register (compiled only when the backend is avx2,
// so plain -mavx2 objects never leak into a non-AVX2 build).
// ---------------------------------------------------------------------------

#if RDP_SIMD_BACKEND == 1

struct Avx2VecD {
    __m256d v;

    static Avx2VecD zero() { return {_mm256_setzero_pd()}; }
    static Avx2VecD set1(double x) { return {_mm256_set1_pd(x)}; }
    static Avx2VecD iota() { return {_mm256_setr_pd(0.0, 1.0, 2.0, 3.0)}; }
    static Avx2VecD loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
    /// All-ones in lanes < m, zeros elsewhere, as an integer mask for
    /// maskload/maskstore (which test the lane's top bit).
    static __m256i tail_mask(int m) {
        const __m256d lt = _mm256_cmp_pd(
            _mm256_setr_pd(0.0, 1.0, 2.0, 3.0),
            _mm256_set1_pd(static_cast<double>(m)), _CMP_LT_OQ);
        return _mm256_castpd_si256(lt);
    }
    static Avx2VecD load_partial(const double* p, int m) {
        return {_mm256_maskload_pd(p, tail_mask(m))};
    }

    void storeu(double* p) const { _mm256_storeu_pd(p, v); }
    void store_partial(double* p, int m) const {
        _mm256_maskstore_pd(p, tail_mask(m), v);
    }

    friend Avx2VecD operator+(Avx2VecD a, Avx2VecD b) {
        return {_mm256_add_pd(a.v, b.v)};
    }
    friend Avx2VecD operator-(Avx2VecD a, Avx2VecD b) {
        return {_mm256_sub_pd(a.v, b.v)};
    }
    friend Avx2VecD operator*(Avx2VecD a, Avx2VecD b) {
        return {_mm256_mul_pd(a.v, b.v)};
    }
    friend Avx2VecD operator/(Avx2VecD a, Avx2VecD b) {
        return {_mm256_div_pd(a.v, b.v)};
    }

    friend Avx2VecD vneg(Avx2VecD a) {
        return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
    }
    friend Avx2VecD vmin(Avx2VecD a, Avx2VecD b) {
        return {_mm256_min_pd(a.v, b.v)};
    }
    friend Avx2VecD vmax(Avx2VecD a, Avx2VecD b) {
        return {_mm256_max_pd(a.v, b.v)};
    }
    friend Avx2VecD fmadd(Avx2VecD a, Avx2VecD b, Avx2VecD c) {
        return {_mm256_fmadd_pd(a.v, b.v, c.v)};
    }
    friend Avx2VecD mul_add(Avx2VecD a, Avx2VecD b, Avx2VecD c) {
#if defined(RDP_SIMD_FMA)
        return {_mm256_fmadd_pd(a.v, b.v, c.v)};
#else
        return a * b + c;
#endif
    }
    friend Avx2VecD mul_sub(Avx2VecD a, Avx2VecD b, Avx2VecD c) {
#if defined(RDP_SIMD_FMA)
        return {_mm256_fmsub_pd(a.v, b.v, c.v)};
#else
        return a * b - c;
#endif
    }
    friend Avx2VecD nmul_add(Avx2VecD a, Avx2VecD b, Avx2VecD c) {
#if defined(RDP_SIMD_FMA)
        return {_mm256_fnmadd_pd(a.v, b.v, c.v)};
#else
        return c - a * b;
#endif
    }
    friend Avx2VecD and_gt_zero(Avx2VecD c, Avx2VecD v) {
        const __m256d gt =
            _mm256_cmp_pd(c.v, _mm256_setzero_pd(), _CMP_GT_OQ);
        return {_mm256_and_pd(gt, v.v)};
    }
    friend Avx2VecD zero_tail(Avx2VecD v, int m) {
        return {_mm256_and_pd(v.v, _mm256_castsi256_pd(tail_mask(m)))};
    }
    friend double reduce_add(Avx2VecD a) {
        const __m128d lo = _mm256_castpd256_pd128(a.v);
        const __m128d hi = _mm256_extractf128_pd(a.v, 1);
        const __m128d s = _mm_add_pd(lo, hi);  // {l0+l2, l1+l3}
        return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
    }
    friend Avx2VecD reverse_lanes(Avx2VecD a) {
        return {_mm256_permute4x64_pd(a.v, 0x1B)};
    }
    friend void deinterleave2(const double* p, Avx2VecD& even, Avx2VecD& odd) {
        const __m256d a = _mm256_loadu_pd(p);      // p0 p1 p2 p3
        const __m256d b = _mm256_loadu_pd(p + 4);  // p4 p5 p6 p7
        const __m256d t0 = _mm256_permute2f128_pd(a, b, 0x20);  // p0 p1 p4 p5
        const __m256d t1 = _mm256_permute2f128_pd(a, b, 0x31);  // p2 p3 p6 p7
        even = {_mm256_unpacklo_pd(t0, t1)};                    // p0 p2 p4 p6
        odd = {_mm256_unpackhi_pd(t0, t1)};                     // p1 p3 p5 p7
    }
    friend void interleave2(double* p, Avx2VecD even, Avx2VecD odd) {
        const __m256d t0 = _mm256_unpacklo_pd(even.v, odd.v);  // e0 o0 e2 o2
        const __m256d t1 = _mm256_unpackhi_pd(even.v, odd.v);  // e1 o1 e3 o3
        _mm256_storeu_pd(p, _mm256_permute2f128_pd(t0, t1, 0x20));
        _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(t0, t1, 0x31));
    }
    friend Avx2VecD swap_pairs(Avx2VecD a) {
        return {_mm256_permute_pd(a.v, 0b0101)};
    }
    friend Avx2VecD addsub(Avx2VecD a, Avx2VecD b) {
        return {_mm256_addsub_pd(a.v, b.v)};
    }
    friend Avx2VecD pow2_from_shifted(Avx2VecD t);
};

#endif  // RDP_SIMD_BACKEND == 1

// ---------------------------------------------------------------------------
// NeonVecD: two 128-bit registers (AArch64).
// ---------------------------------------------------------------------------

#if RDP_SIMD_BACKEND == 2

struct NeonVecD {
    float64x2_t v0;  // lanes 0,1
    float64x2_t v1;  // lanes 2,3

    static NeonVecD zero() {
        return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)};
    }
    static NeonVecD set1(double x) { return {vdupq_n_f64(x), vdupq_n_f64(x)}; }
    static NeonVecD iota() {
        const double lo[2] = {0.0, 1.0};
        const double hi[2] = {2.0, 3.0};
        return {vld1q_f64(lo), vld1q_f64(hi)};
    }
    static NeonVecD loadu(const double* p) {
        return {vld1q_f64(p), vld1q_f64(p + 2)};
    }
    static NeonVecD load_partial(const double* p, int m) {
        double tmp[4] = {0.0, 0.0, 0.0, 0.0};
        for (int i = 0; i < m; ++i) tmp[i] = p[i];
        return loadu(tmp);
    }

    void storeu(double* p) const {
        vst1q_f64(p, v0);
        vst1q_f64(p + 2, v1);
    }
    void store_partial(double* p, int m) const {
        double tmp[4];
        storeu(tmp);
        for (int i = 0; i < m; ++i) p[i] = tmp[i];
    }

    friend NeonVecD operator+(NeonVecD a, NeonVecD b) {
        return {vaddq_f64(a.v0, b.v0), vaddq_f64(a.v1, b.v1)};
    }
    friend NeonVecD operator-(NeonVecD a, NeonVecD b) {
        return {vsubq_f64(a.v0, b.v0), vsubq_f64(a.v1, b.v1)};
    }
    friend NeonVecD operator*(NeonVecD a, NeonVecD b) {
        return {vmulq_f64(a.v0, b.v0), vmulq_f64(a.v1, b.v1)};
    }
    friend NeonVecD operator/(NeonVecD a, NeonVecD b) {
        return {vdivq_f64(a.v0, b.v0), vdivq_f64(a.v1, b.v1)};
    }

    friend NeonVecD vneg(NeonVecD a) {
        return {vnegq_f64(a.v0), vnegq_f64(a.v1)};
    }
    // Compare+select, NOT vminq/vmaxq: FMIN/FMAX order ±0 and propagate NaN
    // differently from the x86 select semantics the contract fixes.
    friend NeonVecD vmin(NeonVecD a, NeonVecD b) {
        return {vbslq_f64(vcltq_f64(a.v0, b.v0), a.v0, b.v0),
                vbslq_f64(vcltq_f64(a.v1, b.v1), a.v1, b.v1)};
    }
    friend NeonVecD vmax(NeonVecD a, NeonVecD b) {
        return {vbslq_f64(vcgtq_f64(a.v0, b.v0), a.v0, b.v0),
                vbslq_f64(vcgtq_f64(a.v1, b.v1), a.v1, b.v1)};
    }
    friend NeonVecD fmadd(NeonVecD a, NeonVecD b, NeonVecD c) {
        return {vfmaq_f64(c.v0, a.v0, b.v0), vfmaq_f64(c.v1, a.v1, b.v1)};
    }
    friend NeonVecD mul_add(NeonVecD a, NeonVecD b, NeonVecD c) {
#if defined(RDP_SIMD_FMA)
        return fmadd(a, b, c);
#else
        return a * b + c;
#endif
    }
    friend NeonVecD mul_sub(NeonVecD a, NeonVecD b, NeonVecD c) {
#if defined(RDP_SIMD_FMA)
        // a*b - c == -(c - a*b); negation is exact and round-to-nearest is
        // sign-symmetric, so this matches a fused fmsub bit for bit.
        return vneg(nmul_add(a, b, c));
#else
        return a * b - c;
#endif
    }
    friend NeonVecD nmul_add(NeonVecD a, NeonVecD b, NeonVecD c) {
#if defined(RDP_SIMD_FMA)
        return {vfmsq_f64(c.v0, a.v0, b.v0), vfmsq_f64(c.v1, a.v1, b.v1)};
#else
        return c - a * b;
#endif
    }
    friend NeonVecD and_gt_zero(NeonVecD c, NeonVecD v) {
        const uint64x2_t z0 = vcgtq_f64(c.v0, vdupq_n_f64(0.0));
        const uint64x2_t z1 = vcgtq_f64(c.v1, vdupq_n_f64(0.0));
        return {vreinterpretq_f64_u64(
                    vandq_u64(z0, vreinterpretq_u64_f64(v.v0))),
                vreinterpretq_f64_u64(
                    vandq_u64(z1, vreinterpretq_u64_f64(v.v1)))};
    }
    friend NeonVecD zero_tail(NeonVecD v, int m) {
        double tmp[4];
        v.storeu(tmp);
        for (int i = m; i < 4; ++i) tmp[i] = 0.0;
        return loadu(tmp);
    }
    friend double reduce_add(NeonVecD a) {
        const float64x2_t s = vaddq_f64(a.v0, a.v1);  // {l0+l2, l1+l3}
        return vgetq_lane_f64(s, 0) + vgetq_lane_f64(s, 1);
    }
    friend NeonVecD reverse_lanes(NeonVecD a) {
        return {vextq_f64(a.v1, a.v1, 1), vextq_f64(a.v0, a.v0, 1)};
    }
    friend void deinterleave2(const double* p, NeonVecD& even, NeonVecD& odd) {
        const float64x2x2_t z0 = vld2q_f64(p);      // {p0,p2}, {p1,p3}
        const float64x2x2_t z1 = vld2q_f64(p + 4);  // {p4,p6}, {p5,p7}
        even = {z0.val[0], z1.val[0]};
        odd = {z0.val[1], z1.val[1]};
    }
    friend void interleave2(double* p, NeonVecD even, NeonVecD odd) {
        const float64x2x2_t lo = {{even.v0, odd.v0}};
        const float64x2x2_t hi = {{even.v1, odd.v1}};
        vst2q_f64(p, lo);
        vst2q_f64(p + 4, hi);
    }
    friend NeonVecD swap_pairs(NeonVecD a) {
        return {vextq_f64(a.v0, a.v0, 1), vextq_f64(a.v1, a.v1, 1)};
    }
    friend NeonVecD addsub(NeonVecD a, NeonVecD b) {
        // No NEON addsub: compute both and merge lanes (sub in lane 0,
        // add in lane 1 of each pair) — same IEEE ops as x86 addsubpd.
        const float64x2_t s0 = vsubq_f64(a.v0, b.v0);
        const float64x2_t a0 = vaddq_f64(a.v0, b.v0);
        const float64x2_t s1 = vsubq_f64(a.v1, b.v1);
        const float64x2_t a1 = vaddq_f64(a.v1, b.v1);
        return {vcopyq_laneq_f64(s0, 1, a0, 1), vcopyq_laneq_f64(s1, 1, a1, 1)};
    }
    friend NeonVecD pow2_from_shifted(NeonVecD t);
};

#endif  // RDP_SIMD_BACKEND == 2

#if RDP_SIMD_BACKEND == 1
using VecD = Avx2VecD;
#elif RDP_SIMD_BACKEND == 2
using VecD = NeonVecD;
#else
using VecD = ScalarVecD;
#endif

// ---------------------------------------------------------------------------
// stable_exp: the one exp-overflow guard of the codebase.
//
// exp(x) with the argument clamped into the IEEE-double-safe window
// [-708, 709] (beyond it, exp over/underflows): the clamp replaces the
// ad-hoc guards that used to live in the WA wirelength and the stats
// geometric mean. Accuracy is ~1 ulp (argument reduction with a Cody-Waite
// split of ln 2 plus a degree-13 Horner polynomial, all fused), NOT
// correctly rounded like libm — callers compare against std::exp with a
// relative tolerance, never bitwise. The vector form is lane-for-lane
// bitwise identical to the scalar twin on every backend (fmadd is always
// fused; tests/simd_test.cpp enforces the twin property).
// NaN inputs are clamped like -inf and yield exp(-708).
// ---------------------------------------------------------------------------

namespace detail {
inline constexpr double kExpLo = -708.0;
inline constexpr double kExpHi = 709.0;
inline constexpr double kLog2E = 1.4426950408889634074;  // log2(e)
// 1.5 * 2^52: adding it forces round-to-nearest-integer into the mantissa
// bits, and the integer is recoverable from the bit pattern (|k| < 2^51).
inline constexpr double kExpShift = 6755399441055744.0;
// Cody-Waite split of ln 2: the high part has 20 trailing zero mantissa
// bits, so k * kLn2Hi is exact for |k| <= 2^20.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
// 1/k! for k = 13 down to 2 (Horner order).
inline constexpr double kExpPoly[12] = {
    1.6059043836821613e-10, 2.0876756987868098e-09, 2.5052108385441720e-08,
    2.7557319223985888e-07, 2.7557319223985893e-06, 2.4801587301587302e-05,
    1.9841269841269841e-04, 1.3888888888888889e-03, 8.3333333333333333e-03,
    4.1666666666666664e-02, 1.6666666666666666e-01, 5.0000000000000000e-01,
};
}  // namespace detail

inline ScalarVecD pow2_from_shifted(ScalarVecD t) {
    ScalarVecD r;
    const auto si = std::bit_cast<std::int64_t>(detail::kExpShift);
    for (int i = 0; i < 4; ++i) {
        const auto ti = std::bit_cast<std::int64_t>(t.l[i]);
        r.l[i] = std::bit_cast<double>((ti - si + 1023) << 52);
    }
    return r;
}

#if RDP_SIMD_BACKEND == 1
inline Avx2VecD pow2_from_shifted(Avx2VecD t) {
    const __m256i ti = _mm256_castpd_si256(t.v);
    const __m256i si =
        _mm256_castpd_si256(_mm256_set1_pd(detail::kExpShift));
    const __m256i k = _mm256_sub_epi64(ti, si);
    const __m256i bits =
        _mm256_slli_epi64(_mm256_add_epi64(k, _mm256_set1_epi64x(1023)), 52);
    return {_mm256_castsi256_pd(bits)};
}
#endif

#if RDP_SIMD_BACKEND == 2
inline NeonVecD pow2_from_shifted(NeonVecD t) {
    const int64x2_t si =
        vreinterpretq_s64_f64(vdupq_n_f64(detail::kExpShift));
    const int64x2_t bias = vdupq_n_s64(1023);
    const int64x2_t k0 = vsubq_s64(vreinterpretq_s64_f64(t.v0), si);
    const int64x2_t k1 = vsubq_s64(vreinterpretq_s64_f64(t.v1), si);
    return {vreinterpretq_f64_s64(vshlq_n_s64(vaddq_s64(k0, bias), 52)),
            vreinterpretq_f64_s64(vshlq_n_s64(vaddq_s64(k1, bias), 52))};
}
#endif

/// Scalar twin of the vectorized stable_exp; bitwise identical per lane.
inline double stable_exp(double x) {
    using namespace detail;
    x = x > kExpLo ? x : kExpLo;  // NaN falls through to the clamp value
    x = x < kExpHi ? x : kExpHi;
    const double t = std::fma(x, kLog2E, kExpShift);
    const double kd = t - kExpShift;
    double r = std::fma(kd, -kLn2Hi, x);
    r = std::fma(kd, -kLn2Lo, r);
    double p = kExpPoly[0];
    for (int i = 1; i < 12; ++i) p = std::fma(p, r, kExpPoly[i]);
    p = std::fma(p, r, 1.0);
    p = std::fma(p, r, 1.0);
    const auto ti = std::bit_cast<std::int64_t>(t);
    const auto si = std::bit_cast<std::int64_t>(kExpShift);
    return p * std::bit_cast<double>((ti - si + 1023) << 52);
}

template <typename V>
inline V stable_exp(V x) {
    using namespace detail;
    x = vmax(x, V::set1(kExpLo));
    x = vmin(x, V::set1(kExpHi));
    const V t = fmadd(x, V::set1(kLog2E), V::set1(kExpShift));
    const V kd = t - V::set1(kExpShift);
    V r = fmadd(kd, V::set1(-kLn2Hi), x);
    r = fmadd(kd, V::set1(-kLn2Lo), r);
    V p = V::set1(kExpPoly[0]);
    for (int i = 1; i < 12; ++i) p = fmadd(p, r, V::set1(kExpPoly[i]));
    p = fmadd(p, r, V::set1(1.0));
    p = fmadd(p, r, V::set1(1.0));
    return p * pow2_from_shifted(t);
}

}  // namespace rdp::simd
