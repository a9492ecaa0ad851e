#pragma once
// Dense row-major 2D array used for density maps, demand/capacity maps,
// potential/field grids, and congestion maps.

#include <cassert>
#include <cstddef>
#include <vector>

namespace rdp {

/// Dense 2D array addressed as (ix, iy) = (column, row), row-major storage
/// with `ix` varying fastest. Width = number of columns, height = rows.
template <typename T>
class Grid2D {
public:
    Grid2D() = default;
    Grid2D(int width, int height, T init = T{})
        : w_(width), h_(height), data_(static_cast<size_t>(width) * height, init) {
        assert(width >= 0 && height >= 0);
    }

    int width() const { return w_; }
    int height() const { return h_; }
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    bool in_bounds(int ix, int iy) const {
        return ix >= 0 && ix < w_ && iy >= 0 && iy < h_;
    }

    T& at(int ix, int iy) {
        assert(in_bounds(ix, iy));
        return data_[static_cast<size_t>(iy) * w_ + ix];
    }
    const T& at(int ix, int iy) const {
        assert(in_bounds(ix, iy));
        return data_[static_cast<size_t>(iy) * w_ + ix];
    }
    T& operator()(int ix, int iy) { return at(ix, iy); }
    const T& operator()(int ix, int iy) const { return at(ix, iy); }

    /// Value with out-of-bounds indices clamped to the border.
    const T& at_clamped(int ix, int iy) const {
        const int cx = ix < 0 ? 0 : (ix >= w_ ? w_ - 1 : ix);
        const int cy = iy < 0 ? 0 : (iy >= h_ ? h_ - 1 : iy);
        return at(cx, cy);
    }

    void fill(T v) { std::fill(data_.begin(), data_.end(), v); }
    void resize(int width, int height, T init = T{}) {
        w_ = width;
        h_ = height;
        data_.assign(static_cast<size_t>(width) * height, init);
    }

    T* data() { return data_.data(); }
    const T* data() const { return data_.data(); }
    std::vector<T>& raw() { return data_; }
    const std::vector<T>& raw() const { return data_; }

    auto begin() { return data_.begin(); }
    auto end() { return data_.end(); }
    auto begin() const { return data_.begin(); }
    auto end() const { return data_.end(); }

    bool operator==(const Grid2D&) const = default;

private:
    int w_ = 0;
    int h_ = 0;
    std::vector<T> data_;
};

using GridF = Grid2D<double>;

/// Sum of all entries.
double grid_sum(const GridF& g);
/// Maximum entry (0 for an empty grid).
double grid_max(const GridF& g);
/// Arithmetic mean (0 for an empty grid).
double grid_mean(const GridF& g);
/// Elementwise a += b (dimensions must match).
void grid_add(GridF& a, const GridF& b);
/// Elementwise multiply by a scalar.
void grid_scale(GridF& g, double s);

/// Copy src into dst, resizing only when the dimensions differ — repeated
/// calls on a matching dst are allocation-free.
void grid_copy_into(const GridF& src, GridF& dst);

/// Cache-blocked transpose: dst.at(j, i) = src.at(i, j), with dst resized
/// to (src.height() x src.width()) only when its dimensions differ. When
/// `dst_col_scale` is non-null (length src.height() = dst.width()), every
/// output entry is additionally scaled by dst_col_scale[j] — this lets the
/// spectral Poisson solver fold a per-spectral-index factor into the
/// transpose for free. Tiles are 32 x 32; writes are elementwise-disjoint
/// and the block decomposition depends only on the grid dimensions, so
/// results are bitwise identical at any thread count.
void grid_transpose_into(const GridF& src, GridF& dst,
                         const double* dst_col_scale = nullptr);

}  // namespace rdp
