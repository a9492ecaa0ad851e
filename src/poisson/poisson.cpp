#include "poisson/poisson.hpp"

#include <cassert>
#include <cmath>
#include <utility>

#include "fft/dct.hpp"
#include "fft/fft.hpp"
#include "util/parallel.hpp"

namespace rdp {

namespace {

/// Rows per band of the batched row loops (and of the spectral pass). A
/// band of fewer rows costs more to hand to a worker than it saves: 32²
/// and 64² grids solve on the calling thread, 128² in 2 bands and 256² in
/// 4. The plan depends on the grid dimensions only, never on the thread
/// count, and rows are independent, so the bits do not depend on it.
constexpr size_t kBandRows = 64;

par::ChunkPlan band_plan(int rows) {
    return par::plan(static_cast<size_t>(rows), kBandRows);
}

}  // namespace

PoissonSolver::PoissonSolver(int width, int height) : w_(width), h_(height) {
    assert(is_pow2(width) && is_pow2(height));
    wu_.resize(static_cast<size_t>(w_));
    for (int u = 0; u < w_; ++u)
        wu_[static_cast<size_t>(u)] = M_PI * u / w_;
    wv_.resize(static_cast<size_t>(h_));
    for (int v = 0; v < h_; ++v)
        wv_[static_cast<size_t>(v)] = M_PI * v / h_;

    // Spectral multiplier table: cosine-coefficient normalization
    // p_u p_v / (w h) (p_0 = 1, else 2) times the Poisson kernel
    // 1 / (w_u^2 + w_v^2), with the (0,0) mode pinned to 0. Precomputing
    // removes every divide from the per-solve spectral pass.
    spec_.resize(static_cast<size_t>(w_) * static_cast<size_t>(h_));
    const double inv_mn = 1.0 / (static_cast<double>(w_) * h_);
    for (int u = 0; u < w_; ++u) {
        const double wu = wu_[static_cast<size_t>(u)];
        const double pu = (u == 0) ? 1.0 : 2.0;
        double* row = spec_.data() + static_cast<size_t>(u) * h_;
        for (int v = 0; v < h_; ++v) {
            const double wv = wv_[static_cast<size_t>(v)];
            const double denom = wu * wu + wv * wv;
            const double pv = (v == 0) ? 1.0 : 2.0;
            row[v] = (denom > 0.0) ? pu * pv * inv_mn / denom : 0.0;
        }
    }

    ws_w_.resize(band_plan(h_).num_chunks);
    for (auto& ws : ws_w_) ws = std::make_unique<DctWorkspace>(w_);
    ws_h_.resize(band_plan(w_).num_chunks);
    for (auto& ws : ws_h_) ws = std::make_unique<DctWorkspace>(h_);
}

PoissonSolver::~PoissonSolver() = default;
PoissonSolver::PoissonSolver(const PoissonSolver& o)
    : PoissonSolver(o.w_, o.h_) {}

void PoissonSolver::apply_1d(DctWorkspace& ws, Kind k, double* x) {
    switch (k) {
        case Kind::Dct2: ws.dct2(x); break;
        case Kind::Dct3: ws.dct3(x); break;
        case Kind::Idxst: ws.idxst(x); break;
    }
}

// Rows are contiguous in the row-major grid, so every pass streams cache
// lines linearly. Row chunks use distinct workspaces from the pool, so the
// batch is safe to run concurrently and thread-count invariant.
void PoissonSolver::rows_u(GridF& g, Kind kind) const {
    assert(g.width() == w_ && g.height() == h_);
    par::run_chunks(band_plan(h_), [&](size_t b, size_t e, size_t c) {
        DctWorkspace& ws = *ws_w_[c];
        for (size_t y = b; y < e; ++y)
            apply_1d(ws, kind, &g.at(0, static_cast<int>(y)));
    });
}

void PoissonSolver::rows_v(GridF& g, Kind kind) const {
    assert(g.width() == h_ && g.height() == w_);
    par::run_chunks(band_plan(w_), [&](size_t b, size_t e, size_t c) {
        DctWorkspace& ws = *ws_h_[c];
        for (size_t u = b; u < e; ++u)
            apply_1d(ws, kind, &g.at(0, static_cast<int>(u)));
    });
}

// Enforce the compatibility condition while loading the input into scratch:
// dst = rho - mean(rho) in a single fused pass (deterministic chunked sum in
// fixed chunk order, then disjoint writes).
void PoissonSolver::load_mean_shifted(const GridF& rho, GridF& dst) const {
    if (dst.width() != w_ || dst.height() != h_) dst.resize(w_, h_);
    const size_t n = rho.size();
    if (n == 0) return;
    const double sum = par::parallel_sum(n, 16384, [&](size_t b, size_t e) {
        const double* p = rho.data();
        double acc = 0.0;
        for (size_t i = b; i < e; ++i) acc += p[i];
        return acc;
    });
    const double mean = sum / static_cast<double>(n);
    par::parallel_for(n, 16384, [&](size_t b, size_t e) {
        const double* src = rho.data();
        double* out = dst.data();
        for (size_t i = b; i < e; ++i) out[i] = src[i] - mean;
    });
}

// ta (transposed layout, rows indexed by u) holds the raw 2D DCT-II output
// X_uv. Replace it with the potential spectra c_uv = s X_uv spec_[u, v]
// (s = charge_scale, folded here by linearity instead of scaling the input)
// and optionally emit the y-field spectra c_uv w_v into tb.
void PoissonSolver::apply_spectral(GridF& ta, GridF* tb,
                                   double charge_scale) const {
    assert(ta.width() == h_ && ta.height() == w_);
    if (tb && (tb->width() != h_ || tb->height() != w_)) tb->resize(h_, w_);
    par::parallel_for(static_cast<size_t>(w_), kBandRows,
                      [&](size_t ub, size_t ue) {
        for (size_t ui = ub; ui < ue; ++ui) {
            const int u = static_cast<int>(ui);
            const double* sm = spec_.data() + static_cast<size_t>(u) * h_;
            double* trow = &ta.at(0, u);
            double* brow = tb ? &tb->at(0, u) : nullptr;
            if (brow) {
                for (int v = 0; v < h_; ++v) {
                    const double c = trow[v] * sm[v] * charge_scale;
                    trow[v] = c;
                    brow[v] = c * wv_[static_cast<size_t>(v)];
                }
            } else {
                for (int v = 0; v < h_; ++v)
                    trow[v] *= sm[v] * charge_scale;
            }
        }
    });
}

// Full solve: 7 batched row passes + 4 blocked transposes.
//
//   a  = rho - mean           (input layout)
//   a  = DCT2 rows (u)        forward pass 1
//   ta = a^T                  transpose 1
//   ta = DCT2 rows (v)        forward pass 2 -> X_uv
//   ta = c_uv, tb = c_uv w_v  fused spectral scale
//   ta = DCT3 rows (v)        shared v-pass for potential AND field_x
//   tb = IDXST rows (v)       v-pass for field_y
//   potential = ta^T          transpose 2
//   field_x   = ta^T * w_u    transpose 3 (w_u folded in as a column scale)
//   field_y   = tb^T          transpose 4
//   potential = DCT3 rows (u), field_x = IDXST rows (u),
//   field_y   = DCT3 rows (u)
//
// field_x's v-direction transform is identical to the potential's (w_u is
// constant along v), so the shared DCT3 pass is computed once and the w_u
// factor rides along with the transpose for free.
const PoissonSolution& PoissonSolver::solve(const GridF& rho,
                                            PoissonWorkspace& ws,
                                            double charge_scale) const {
    assert(rho.width() == w_ && rho.height() == h_);
    load_mean_shifted(rho, ws.a);
    rows_u(ws.a, Kind::Dct2);
    grid_transpose_into(ws.a, ws.ta);
    rows_v(ws.ta, Kind::Dct2);
    apply_spectral(ws.ta, &ws.tb, charge_scale);
    rows_v(ws.ta, Kind::Dct3);
    rows_v(ws.tb, Kind::Idxst);
    grid_transpose_into(ws.ta, ws.sol.potential);
    grid_transpose_into(ws.ta, ws.sol.field_x, wu_.data());
    grid_transpose_into(ws.tb, ws.sol.field_y);
    rows_u(ws.sol.potential, Kind::Dct3);
    rows_u(ws.sol.field_x, Kind::Idxst);
    rows_u(ws.sol.field_y, Kind::Dct3);
    return ws.sol;
}

const GridF& PoissonSolver::solve_potential(const GridF& rho,
                                            PoissonWorkspace& ws,
                                            double charge_scale) const {
    assert(rho.width() == w_ && rho.height() == h_);
    load_mean_shifted(rho, ws.a);
    rows_u(ws.a, Kind::Dct2);
    grid_transpose_into(ws.a, ws.ta);
    rows_v(ws.ta, Kind::Dct2);
    apply_spectral(ws.ta, nullptr, charge_scale);
    rows_v(ws.ta, Kind::Dct3);
    grid_transpose_into(ws.ta, ws.sol.potential);
    rows_u(ws.sol.potential, Kind::Dct3);
    return ws.sol.potential;
}

PoissonSolution PoissonSolver::solve(const GridF& rho) const {
    PoissonWorkspace ws;
    solve(rho, ws);
    return std::move(ws.sol);
}

GridF PoissonSolver::solve_potential(const GridF& rho) const {
    PoissonWorkspace ws;
    solve_potential(rho, ws);
    return std::move(ws.sol.potential);
}

}  // namespace rdp
