#pragma once
// Uniform bin grid over the placement region. The paper (Section II-B)
// deliberately gives the density bins and the router G-cells the same
// dimensions so congestion values can be mapped 1:1 onto bins; we follow
// that: one BinGrid geometry is shared by the density map, the congestion
// map, and the DPA density adjustment.

#include <algorithm>
#include <cmath>

#include "db/design.hpp"
#include "util/geometry.hpp"
#include "util/grid2d.hpp"
#include "util/parallel.hpp"

namespace rdp {

class BinGrid {
public:
    BinGrid() = default;
    BinGrid(Rect region, int nx, int ny);

    const Rect& region() const { return region_; }
    int nx() const { return nx_; }
    int ny() const { return ny_; }
    double bin_w() const { return bin_w_; }
    double bin_h() const { return bin_h_; }
    double bin_area() const { return bin_w_ * bin_h_; }

    /// Grid index containing point p, clamped to valid range.
    GridIndex index_of(Vec2 p) const;
    /// Geometric box of bin (ix, iy).
    Rect bin_box(int ix, int iy) const;
    /// Center of bin (ix, iy).
    Vec2 bin_center(int ix, int iy) const;

    /// Fresh zero grid with this geometry.
    GridF make_grid() const { return GridF(nx_, ny_); }

    /// Accumulate `scale` * (overlap area of r with each bin) into g.
    void splat_area(GridF& g, const Rect& r, double scale = 1.0) const;

    /// Inclusive bin-index span [x0, x1] x [y0, y1] of the bins r (clipped
    /// to the region) can overlap; false when the clipped rect is empty.
    /// The single source of truth for rect -> bin-range mapping, shared by
    /// for_each_overlap and the vectorized splat and gather kernels
    /// (grid/splat_kernel.hpp).
    bool bin_span(const Rect& r, int& x0, int& y0, int& x1, int& y1) const {
        const Rect c = r.intersect(region_);
        if (c.empty()) return false;
        x0 = std::clamp(
            static_cast<int>(std::floor((c.lx - region_.lx) / bin_w_)), 0,
            nx_ - 1);
        x1 = std::clamp(
            static_cast<int>(std::floor((c.hx - region_.lx) / bin_w_)), 0,
            nx_ - 1);
        y0 = std::clamp(
            static_cast<int>(std::floor((c.ly - region_.ly) / bin_h_)), 0,
            ny_ - 1);
        y1 = std::clamp(
            static_cast<int>(std::floor((c.hy - region_.ly) / bin_h_)), 0,
            ny_ - 1);
        return true;
    }

    /// Visit every bin overlapping r (clipped to the region) with the
    /// overlap area: fn(ix, iy, area). The adjoint of splat_area.
    template <typename Fn>
    void for_each_overlap(const Rect& r, Fn&& fn) const {
        const Rect c = r.intersect(region_);
        int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
        if (!bin_span(r, x0, y0, x1, y1)) return;
        for (int iy = y0; iy <= y1; ++iy) {
            for (int ix = x0; ix <= x1; ++ix) {
                const double a = c.overlap_area(bin_box(ix, iy));
                if (a > 0.0) fn(ix, iy, a);
            }
        }
    }

    /// Bilinear interpolation of a bin-centered scalar field at p
    /// (border-clamped outside the outermost bin centers).
    double sample_bilinear(const GridF& g, Vec2 p) const;
    /// Bilinear interpolation of a bin-centered vector field at p.
    Vec2 sample_field(const GridF& fx, const GridF& fy, Vec2 p) const;

    bool compatible(const GridF& g) const {
        return g.width() == nx_ && g.height() == ny_;
    }

private:
    Rect region_;
    int nx_ = 0;
    int ny_ = 0;
    double bin_w_ = 0.0;
    double bin_h_ = 0.0;
};

/// Deterministic parallel scatter: for each item i in [0, n), `splat(g, i)`
/// accumulates into a grid; items are chunked (chunking a function of n
/// only), each chunk splats into a private zero grid, and the per-chunk
/// grids are summed into `out` bin-by-bin in ascending chunk order — so the
/// result is bitwise identical for any RDP_THREADS value. `out` must
/// already have the grid's dimensions (it is added to, not cleared).
template <typename SplatFn>
void parallel_splat(const BinGrid& grid, GridF& out, size_t n, size_t grain,
                    SplatFn&& splat) {
    if (n == 0) return;
    const par::ChunkPlan cp = par::plan(n, grain, 16);
    std::vector<GridF> partial(cp.num_chunks);
    par::run_chunks(cp, [&](size_t b, size_t e, size_t c) {
        GridF g = grid.make_grid();
        for (size_t i = b; i < e; ++i) splat(g, i);
        partial[c] = std::move(g);
    });
    par::parallel_for(out.size(), 16384, [&](size_t b, size_t e) {
        double* dst = out.data();
        for (size_t c = 0; c < cp.num_chunks; ++c) {
            const double* src = partial[c].data();
            for (size_t i = b; i < e; ++i) dst[i] += src[i];
        }
    });
}

}  // namespace rdp
