#include "legal/tetris.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace rdp {

namespace {

/// Per-row occupancy: the free intervals remaining (fixed blockages are
/// subtracted up front; placements consume/split intervals). Tracking
/// intervals rather than a single frontier keeps mid-row whitespace usable
/// at high utilization.
struct RowState {
    double y = 0.0;
    std::vector<Interval> free_segs;   ///< sorted, disjoint
    std::vector<Interval> all_segs;    ///< segments before any placement
    std::vector<int> placed;           ///< cells placed into this row
    double free_width = 0.0;           ///< total remaining free width
};

double snap_up(double x, double lx, double site) {
    return lx + std::ceil((x - lx) / site - 1e-9) * site;
}
double snap_down(double x, double lx, double site) {
    return lx + std::floor((x - lx) / site + 1e-9) * site;
}

/// Best legal left-edge for a cell of `width` wanting `want`, or a negative
/// value when the row has no room. Prefers the position minimizing
/// |x - want|.
double find_slot(const RowState& r, double want, double width,
                 double site_width, double region_lx) {
    double best = -1.0;
    double best_cost = std::numeric_limits<double>::max();
    for (const Interval& iv : r.free_segs) {
        const double lo = snap_up(iv.lo, region_lx, site_width);
        const double hi = snap_down(iv.hi, region_lx, site_width);
        if (hi - lo < width - 1e-9) continue;
        // Closest aligned position to `want` inside [lo, hi - width].
        double x = std::clamp(want, lo, hi - width);
        x = snap_up(x, region_lx, site_width);
        if (x + width > hi + 1e-9) x = snap_down(hi - width, region_lx,
                                                 site_width);
        if (x < lo - 1e-9) continue;
        const double cost = std::abs(x - want);
        if (cost < best_cost) {
            best_cost = cost;
            best = x;
        }
        // Intervals are sorted; once we're past `want` the first fitting
        // interval is the best on the right side.
        if (iv.lo > want && best >= 0.0) break;
    }
    return best;
}

/// Remove [x, x+width) from the row's free intervals.
void consume(RowState& r, double x, double width) {
    for (size_t i = 0; i < r.free_segs.size(); ++i) {
        Interval& iv = r.free_segs[i];
        if (x < iv.lo - 1e-9 || x + width > iv.hi + 1e-9) continue;
        const Interval left{iv.lo, x};
        const Interval right{x + width, iv.hi};
        if (left.length() > 1e-9 && right.length() > 1e-9) {
            iv = left;
            r.free_segs.insert(r.free_segs.begin() + static_cast<long>(i) + 1,
                               right);
        } else if (left.length() > 1e-9) {
            iv = left;
        } else if (right.length() > 1e-9) {
            iv = right;
        } else {
            r.free_segs.erase(r.free_segs.begin() + static_cast<long>(i));
        }
        return;
    }
}

/// Repack an entire row left-justified (preserving the cells' x order) to
/// consolidate fragmented whitespace, inserting `new_cell`. Simulates
/// first; commits and refreshes the row state only on success.
bool try_repack_row(Design& d, RowState& r, int new_cell) {
    std::vector<int> cells = r.placed;
    cells.push_back(new_cell);
    std::sort(cells.begin(), cells.end(), [&](int a, int b) {
        return d.cells[static_cast<size_t>(a)].pos.x <
               d.cells[static_cast<size_t>(b)].pos.x;
    });

    const double site = d.site_width;
    const double lx0 = d.region.lx;
    std::vector<double> new_lx(cells.size());
    size_t seg = 0;
    double cursor = 0.0;
    bool have_cursor = false;
    for (size_t i = 0; i < cells.size(); ++i) {
        const double w = d.cells[static_cast<size_t>(cells[i])].width;
        while (seg < r.all_segs.size()) {
            if (!have_cursor) {
                cursor = snap_up(r.all_segs[seg].lo, lx0, site);
                have_cursor = true;
            }
            if (cursor + w <= r.all_segs[seg].hi + 1e-9) break;
            ++seg;
            have_cursor = false;
        }
        if (seg >= r.all_segs.size()) return false;
        new_lx[i] = cursor;
        cursor += w;
    }

    // Commit.
    for (size_t i = 0; i < cells.size(); ++i) {
        Cell& c = d.cells[static_cast<size_t>(cells[i])];
        c.pos = {new_lx[i] + c.width / 2.0, r.y + c.height / 2.0};
    }
    r.placed = cells;
    std::vector<Interval> occupied;
    double used = 0.0;
    for (int ci : cells) {
        const Rect b = d.cells[static_cast<size_t>(ci)].bbox();
        occupied.push_back({b.lx, b.hx});
        used += b.width();
    }
    r.free_segs.clear();
    r.free_width = 0.0;
    for (const Interval& base : r.all_segs) {
        for (const Interval& piece : subtract_intervals(base, occupied)) {
            r.free_segs.push_back(piece);
            r.free_width += piece.length();
        }
    }
    return true;
}

}  // namespace

LegalizeStats tetris_legalize(Design& d, const TetrisConfig& cfg) {
    LegalizeStats stats;
    std::vector<int> failed;
    if (d.rows.empty()) d.build_rows();

    std::vector<RowState> rows(d.rows.size());
    for (size_t i = 0; i < d.rows.size(); ++i) {
        rows[i].y = d.rows[i].y;
        const Rect row_box{d.rows[i].lx, d.rows[i].y, d.rows[i].hx,
                           d.rows[i].y + d.rows[i].height};
        std::vector<Interval> cuts;
        for (const Cell& c : d.cells) {
            if (c.movable()) continue;
            const Rect b = c.bbox();
            if (b.intersects(row_box)) cuts.push_back({b.lx, b.hx});
        }
        rows[i].free_segs = subtract_intervals(
            {d.rows[i].lx, d.rows[i].hx}, std::move(cuts));
        rows[i].all_segs = rows[i].free_segs;
        for (const Interval& iv : rows[i].free_segs)
            rows[i].free_width += iv.length();
    }

    std::vector<int> order = d.movable_cells();
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return d.cells[static_cast<size_t>(a)].pos.x <
               d.cells[static_cast<size_t>(b)].pos.x;
    });

    const int nrows = static_cast<int>(rows.size());
    for (int ci : order) {
        Cell& c = d.cells[static_cast<size_t>(ci)];
        const double want_lx = c.pos.x - c.width / 2.0;
        const double want_y = c.pos.y - c.height / 2.0;
        int best_row = -1;
        double best_x = 0.0;
        double best_cost = std::numeric_limits<double>::max();

        const int r0 = std::clamp(
            static_cast<int>(std::floor((want_y - d.region.ly) /
                                        d.row_height)),
            0, nrows - 1);
        // Search rows outward from the desired one; once a fit exists,
        // finish the configured radius before committing.
        for (int radius = 0; radius < nrows; ++radius) {
            bool any_candidate = false;
            for (int sgn = -1; sgn <= 1; sgn += 2) {
                const int r = r0 + sgn * radius;
                if (radius == 0 && sgn == 1) continue;
                if (r < 0 || r >= nrows) continue;
                any_candidate = true;
                const double x = find_slot(rows[static_cast<size_t>(r)],
                                           want_lx, c.width, d.site_width,
                                           d.region.lx);
                if (x < 0.0) continue;
                const double dy =
                    std::abs(rows[static_cast<size_t>(r)].y - want_y);
                const double cost =
                    std::abs(x - want_lx) + cfg.vertical_weight * dy;
                if (cost < best_cost) {
                    best_cost = cost;
                    best_row = r;
                    best_x = x;
                }
            }
            if (best_row >= 0 && radius >= cfg.row_search_radius) break;
            if (!any_candidate && radius > 0) break;
        }

        if (best_row < 0) {
            failed.push_back(ci);
            continue;
        }
        RowState& r = rows[static_cast<size_t>(best_row)];
        const Vec2 old = c.pos;
        c.pos = {best_x + c.width / 2.0, r.y + c.height / 2.0};
        consume(r, best_x, c.width);
        r.placed.push_back(ci);
        r.free_width -= c.width;
        ++stats.cells_placed;
        const double disp = (c.pos - old).norm1();
        stats.total_displacement += disp;
        stats.max_displacement = std::max(stats.max_displacement, disp);
    }

    // Fallback for fragmentation at high utilization: no single free
    // interval fits the cell anywhere, but rows still have scattered
    // whitespace. Compact the row with the most total free width (packing
    // its cells left-justified segment by segment), which consolidates the
    // whitespace, then place the cell in the opened gap.
    for (int ci : failed) {
        Cell& c = d.cells[static_cast<size_t>(ci)];
        // Rows ordered by free width, most spacious first.
        std::vector<int> by_space(rows.size());
        for (size_t i = 0; i < rows.size(); ++i) by_space[i] = static_cast<int>(i);
        std::sort(by_space.begin(), by_space.end(), [&](int a, int b) {
            return rows[static_cast<size_t>(a)].free_width >
                   rows[static_cast<size_t>(b)].free_width;
        });
        bool placed_ok = false;
        for (int ri : by_space) {
            RowState& r = rows[static_cast<size_t>(ri)];
            if (r.free_width < c.width) break;
            if (try_repack_row(d, r, ci)) {
                placed_ok = true;
                break;
            }
        }
        if (placed_ok) {
            ++stats.cells_placed;
            stats.total_displacement += 0.0;  // displacement not tracked here
        } else {
            ++stats.cells_failed;
        }
    }
    return stats;
}

std::string legality_violation(const Design& d, double eps) {
    std::ostringstream oss;
    // Site/row alignment and containment.
    for (int i = 0; i < d.num_cells(); ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        if (!c.movable()) continue;
        const Rect b = c.bbox();
        if (b.lx < d.region.lx - eps || b.hx > d.region.hx + eps ||
            b.ly < d.region.ly - eps || b.hy > d.region.hy + eps) {
            oss << "cell " << i << " ('" << c.name << "') leaves the region: ["
                << b.lx << ", " << b.ly << ", " << b.hx << ", " << b.hy << "]";
            return oss.str();
        }
        const double row_rel = (b.ly - d.region.ly) / d.row_height;
        if (std::abs(row_rel - std::round(row_rel)) > 1e-4) {
            oss << "cell " << i << " ('" << c.name << "') is not row-aligned:"
                << " bottom edge " << b.ly << " (row height " << d.row_height
                << ")";
            return oss.str();
        }
        const double site_rel = (b.lx - d.region.lx) / d.site_width;
        if (std::abs(site_rel - std::round(site_rel)) > 1e-4) {
            oss << "cell " << i << " ('" << c.name << "') is not site-aligned:"
                << " left edge " << b.lx << " (site width " << d.site_width
                << ")";
            return oss.str();
        }
    }

    // Overlaps via a row-bucketed sweep.
    const size_t nrows = d.rows.size();
    std::vector<std::vector<int>> by_row(nrows);
    // The fixed cells, collected once in index order, so the first
    // offending pair is the one a scan over every cell would find.
    std::vector<int> fixed;
    for (int i = 0; i < d.num_cells(); ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        if (!c.movable()) {
            fixed.push_back(i);
            continue;
        }
        const int r = static_cast<int>(
            std::round((c.bbox().ly - d.region.ly) / d.row_height));
        if (r < 0 || r >= static_cast<int>(nrows)) {
            oss << "cell " << i << " ('" << c.name << "') sits outside the "
                << nrows << " rows (row index " << r << ")";
            return oss.str();
        }
        by_row[static_cast<size_t>(r)].push_back(i);
    }
    std::vector<Rect> fixed_box;
    fixed_box.reserve(fixed.size());
    for (int fi : fixed)
        fixed_box.push_back(d.cells[static_cast<size_t>(fi)].bbox());

    for (auto& row : by_row) {
        std::sort(row.begin(), row.end(), [&](int a, int b) {
            return d.cells[static_cast<size_t>(a)].bbox().lx <
                   d.cells[static_cast<size_t>(b)].bbox().lx;
        });
        for (size_t i = 0; i + 1 < row.size(); ++i) {
            const Rect a = d.cells[static_cast<size_t>(row[i])].bbox();
            const Rect b = d.cells[static_cast<size_t>(row[i + 1])].bbox();
            if (a.hx > b.lx + eps) {
                oss << "cells " << row[i] << " ('"
                    << d.cells[static_cast<size_t>(row[i])].name << "') and "
                    << row[i + 1] << " ('"
                    << d.cells[static_cast<size_t>(row[i + 1])].name
                    << "') overlap in a row by " << a.hx - b.lx;
                return oss.str();
            }
        }
        for (int ci : row) {
            const Rect b =
                d.cells[static_cast<size_t>(ci)].bbox().expanded(-eps);
            if (b.empty()) continue;
            for (size_t k = 0; k < fixed.size(); ++k) {
                if (!b.intersects(fixed_box[k])) continue;
                oss << "cell " << ci << " ('"
                    << d.cells[static_cast<size_t>(ci)].name
                    << "') overlaps fixed cell " << fixed[k] << " ('"
                    << d.cells[static_cast<size_t>(fixed[k])].name << "')";
                return oss.str();
            }
        }
    }
    return {};
}

bool is_legal(const Design& d, double eps) {
    return legality_violation(d, eps).empty();
}

}  // namespace rdp
