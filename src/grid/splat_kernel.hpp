#pragma once
// Vectorized scatter/gather cores over a BinGrid row span (DESIGN.md §14):
// the per-bin overlap-area loops behind BinGrid::splat_area, the density
// gather in electro_density.cpp, and the RUDY per-bin accumulation in
// congestion/rudy.cpp.
//
// Both kernels vectorize along a bin row (unit stride). The overlap width
// per lane is computed with the exact op sequence of
// Rect::overlap_area(bin_box(ix, iy)) — select-based min/max, multiply,
// `> 0` guard — so for every bin the deposited value is bit-identical to
// the scalar loop; lanes whose overlap is empty contribute exactly +0.0.
// Adding +0.0 where the scalar code skipped the add is bitwise-neutral
// because accumulated grids never hold -0.0 (contributions are products of
// positive areas with non-negative scales).
//
// Templated on the SIMD vector type: production instantiates simd::VecD,
// tests/benches also instantiate simd::ScalarVecD and compare bitwise.
// These kernels never use fused ops (even under RDP_SIMD_FMA), so every
// backend deposits the scalar loop's bits and the density and RUDY maps
// are identical across backends and builds.

#include <algorithm>

#include "grid/bin_grid.hpp"
#include "util/grid2d.hpp"
#include "util/simd.hpp"

namespace rdp {

/// Accumulate `scale` * (overlap area of r with each bin) into g — the
/// vectorized body of BinGrid::splat_area. Deterministic and bit-identical
/// to the scalar for_each_overlap loop for every backend.
template <typename V>
void splat_rect(const BinGrid& grid, GridF& g, const Rect& r, double scale) {
    int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
    if (!grid.bin_span(r, x0, y0, x1, y1)) return;
    const Rect c = r.intersect(grid.region());
    const Rect reg = grid.region();
    const double bw = grid.bin_w(), bh = grid.bin_h();
    const int span = x1 - x0 + 1;
    const V vreg_lx = V::set1(reg.lx);
    const V vbw = V::set1(bw);
    const V vclx = V::set1(c.lx), vchx = V::set1(c.hx);
    const V vscale = V::set1(scale);
    const V ix_first = V::set1(static_cast<double>(x0)) + V::iota();
    const V lane_step = V::set1(static_cast<double>(simd::kLanes));
    for (int iy = y0; iy <= y1; ++iy) {
        // Row-constant vertical overlap, same expression as overlap_area.
        const double bly = reg.ly + iy * bh;
        const double h = std::min(c.hy, bly + bh) - std::max(c.ly, bly);
        if (h <= 0.0) continue;
        const V vh = V::set1(h);
        double* row = &g.at(x0, iy);
        V ixv = ix_first;
        int i = 0;
        for (; i + simd::kLanes <= span; i += simd::kLanes) {
            const V blx = vreg_lx + ixv * vbw;  // bin_box: lx + ix*bin_w
            const V bhx = blx + vbw;
            // std::min(c.hx, b.hx) == vmin(b.hx, c.hx) select-for-select;
            // likewise for std::max — ties resolve to the same operand.
            const V w = vmin(bhx, vchx) - vmax(blx, vclx);
            const V contrib = and_gt_zero(w, (w * vh) * vscale);
            (V::loadu(row + i) + contrib).storeu(row + i);
            ixv = ixv + lane_step;
        }
        if (i < span) {
            const int m = span - i;
            const V blx = vreg_lx + ixv * vbw;
            const V bhx = blx + vbw;
            const V w = vmin(bhx, vchx) - vmax(blx, vclx);
            const V contrib = and_gt_zero(w, (w * vh) * vscale);
            const V cur = V::load_partial(row + i, m);
            (cur + contrib).store_partial(row + i, m);
        }
    }
}

/// Result of a footprint gather: overlap-weighted sums of the potential
/// and (optionally) field grids.
struct GatherAcc {
    double psi = 0.0;
    double ex = 0.0;
    double ey = 0.0;
};

/// Overlap-weighted gather of pot (and fx/fy when WithField) over the bins
/// covered by r: the adjoint of splat_rect, vectorized the same way. The
/// per-bin weight w = area * scale matches the scalar loop bit for bit;
/// the sums use the fixed 4-lane structure + reduce_add tree, so results
/// depend only on (r, grids) — identical on every backend and thread count.
template <typename V, bool WithField>
GatherAcc gather_rect(const BinGrid& grid, const GridF& pot, const GridF& fx,
                      const GridF& fy, const Rect& r, double scale) {
    GatherAcc out;
    int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
    if (!grid.bin_span(r, x0, y0, x1, y1)) return out;
    const Rect c = r.intersect(grid.region());
    const Rect reg = grid.region();
    const double bw = grid.bin_w(), bh = grid.bin_h();
    const int span = x1 - x0 + 1;
    const V vreg_lx = V::set1(reg.lx);
    const V vbw = V::set1(bw);
    const V vclx = V::set1(c.lx), vchx = V::set1(c.hx);
    const V vscale = V::set1(scale);
    const V ix_first = V::set1(static_cast<double>(x0)) + V::iota();
    const V lane_step = V::set1(static_cast<double>(simd::kLanes));
    V psi_v = V::zero(), ex_v = V::zero(), ey_v = V::zero();
    for (int iy = y0; iy <= y1; ++iy) {
        const double bly = reg.ly + iy * bh;
        const double h = std::min(c.hy, bly + bh) - std::max(c.ly, bly);
        if (h <= 0.0) continue;
        const V vh = V::set1(h);
        const double* prow = &pot.at(x0, iy);
        const double* xrow = WithField ? &fx.at(x0, iy) : nullptr;
        const double* yrow = WithField ? &fy.at(x0, iy) : nullptr;
        V ixv = ix_first;
        int i = 0;
        for (; i + simd::kLanes <= span; i += simd::kLanes) {
            const V blx = vreg_lx + ixv * vbw;
            const V bhx = blx + vbw;
            const V wov = vmin(bhx, vchx) - vmax(blx, vclx);
            const V wgt = and_gt_zero(wov, (wov * vh) * vscale);
            psi_v = mul_add(wgt, V::loadu(prow + i), psi_v);
            if constexpr (WithField) {
                ex_v = mul_add(wgt, V::loadu(xrow + i), ex_v);
                ey_v = mul_add(wgt, V::loadu(yrow + i), ey_v);
            }
            ixv = ixv + lane_step;
        }
        if (i < span) {
            const int m = span - i;
            const V blx = vreg_lx + ixv * vbw;
            const V bhx = blx + vbw;
            const V wov = vmin(bhx, vchx) - vmax(blx, vclx);
            // Lanes past x1 have empty overlap (bin lx >= clipped hx), so
            // and_gt_zero already zeroes their weight; the partial loads
            // only avoid reading past the row.
            const V wgt = and_gt_zero(wov, (wov * vh) * vscale);
            psi_v = mul_add(wgt, V::load_partial(prow + i, m), psi_v);
            if constexpr (WithField) {
                ex_v = mul_add(wgt, V::load_partial(xrow + i, m), ex_v);
                ey_v = mul_add(wgt, V::load_partial(yrow + i, m), ey_v);
            }
        }
    }
    out.psi = reduce_add(psi_v);
    if constexpr (WithField) {
        out.ex = reduce_add(ex_v);
        out.ey = reduce_add(ey_v);
    }
    return out;
}

}  // namespace rdp
