#pragma once
// Planned iterative radix-2 complex FFT. Power-of-two sizes only; the
// placement bin grids are chosen to be powers of two so this restriction
// never bites.
//
// An FftPlan holds the precomputed bit-reversal permutation and the full
// twiddle table for one transform size, so repeated transforms (the
// spectral Poisson solver runs a 2D batch every Nesterov iteration) pay
// no per-butterfly cos/sin work and suffer none of the numerical drift a
// `w *= wlen` recurrence accumulates. Plans are immutable after
// construction and therefore freely shared across threads; `fft_plan(n)`
// returns a process-wide cached plan per size.
//
// This is the transform engine underneath the DCT/DST routines used by the
// spectral Poisson solver (ePlace density field and the paper's congestion
// field, both solved via Eq. (1)).

#include <complex>
#include <vector>

namespace rdp {

using Complex = std::complex<double>;

/// True if n is a power of two (n >= 1).
constexpr bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n.
int next_pow2(int n);

/// Precomputed transform plan for one power-of-two size. Immutable after
/// construction; `forward`/`inverse` touch only the caller's buffer, so one
/// plan may serve any number of threads concurrently.
class FftPlan {
public:
    /// n must be a power of two (>= 1).
    explicit FftPlan(int n);

    int size() const { return n_; }

    /// In-place forward DFT: X[k] = sum_n x[n] e^{-2 pi i k n / N}.
    void forward(Complex* a) const;

    /// In-place inverse DFT including the 1/N normalization, so
    /// inverse(forward(x)) == x.
    void inverse(Complex* a) const;

    /// Transform body templated on the SIMD vector type (defined in
    /// fft/fft_kernel.hpp). forward/inverse instantiate the active
    /// simd::VecD; tests and benches also instantiate simd::ScalarVecD to
    /// check bitwise equivalence. The butterflies are purely elementwise,
    /// so every backend produces identical bits.
    template <typename V, bool Inverse>
    void transform_with(Complex* a) const;

private:
    int n_;
    std::vector<int> rev_;     ///< bit-reversal permutation
    std::vector<Complex> tw_;  ///< tw_[k] = e^{-2 pi i k / n}, k < n/2
    // Per-stage contiguous lane-duplicated twiddles for stages len >= 8
    // (stage offset len - 8, total 2n - 8 entries; real components stored
    // twice, imaginary components twice with alternating signs): the
    // strided tw_ walk becomes a unit-stride load feeding the
    // interleaved-complex butterfly pass (fft_kernel.hpp).
    std::vector<double> stw_re_;
    std::vector<double> stw_im_;
};

/// Process-wide plan cache: one immutable plan per size, built on first
/// request (thread-safe). The returned reference is valid for the process
/// lifetime.
const FftPlan& fft_plan(int n);

}  // namespace rdp
