#include "router/maze_route.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "util/simd.hpp"

// The search's queue operations are lambdas, which GCC at -O2 calls out of
// line once a function has several call sites; a call per relaxation
// costs as much as the relaxation.
#if defined(__GNUC__)
#define RDP_MAZE_INLINE __attribute__((always_inline))
#else
#define RDP_MAZE_INLINE
#endif

namespace rdp {

namespace {

using simd::VecD;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Relative deflation of the goal-directed search's heuristic: the margin
/// by which it stays consistent under rounding (DESIGN.md §17).
constexpr double kSlack = 1e-9;

/// One cell of a found path and the direction it was entered with
/// (0 = horizontal, 1 = vertical), in grid coordinates.
struct Step {
    GridIndex cell;
    int dir;
};

/// Merge a walk listed goal-first into maximal same-direction spans in
/// start-to-goal order (single-cell runs keep their direction through
/// RouteSeg::dir).
RoutePath merge_runs(const std::vector<Step>& goal_first) {
    RoutePath path;
    size_t i = goal_first.size();
    while (i > 0) {
        const Step& first = goal_first[i - 1];
        size_t k = i - 1;
        while (k > 0 && goal_first[k - 1].dir == first.dir) --k;
        RouteSeg s;
        s.x0 = first.cell.ix;
        s.y0 = first.cell.iy;
        s.x1 = goal_first[k].cell.ix;
        s.y1 = goal_first[k].cell.iy;
        s.dir = first.dir == 0 ? Orient::Horizontal : Orient::Vertical;
        path.segs.push_back(s);
        i = k;
    }
    return path;
}

/// p[0, n) = +inf.
void fill_inf(double* p, size_t n) {
    const VecD inf = VecD::set1(kInf);
    size_t i = 0;
    for (; i + simd::kLanes <= n; i += simd::kLanes) inf.storeu(p + i);
    for (; i < n; ++i) p[i] = kInf;
}

/// The smallest and the largest lane (a NaN lane makes the search fall
/// back whatever they return).
double lane_min(VecD v) {
    double l[simd::kLanes];
    v.storeu(l);
    return std::min(std::min(l[0], l[1]), std::min(l[2], l[3]));
}
double lane_max(VecD v) {
    double l[simd::kLanes];
    v.storeu(l);
    return std::max(std::max(l[0], l[1]), std::max(l[2], l[3]));
}

/// Search state: cell within the window plus the direction of entry
/// (0 = horizontal, 1 = vertical); turns pay the via cost.
struct QEntry {
    double cost;
    int idx;  ///< (dir * wh + y * w + x) within the window

    bool operator>(const QEntry& o) const { return cost > o.cost; }
};

}  // namespace

CellWindow maze_window(int x0, int y0, int x1, int y1, int nx, int ny,
                       const MazeConfig& cfg) {
    return {std::max(std::min(x0, x1) - cfg.window_margin, 0),
            std::max(std::min(y0, y1) - cfg.window_margin, 0),
            std::min(std::max(x0, x1) + cfg.window_margin, nx - 1),
            std::min(std::max(y0, y1) + cfg.window_margin, ny - 1)};
}

RoutePath maze_route(int x0, int y0, int x1, int y1, const RouteCostModel& m,
                     const MazeConfig& cfg) {
    if (std::optional<RoutePath> p =
            maze_detail::bucket_route(x0, y0, x1, y1, m, cfg))
        return std::move(*p);
    return maze_detail::heap_route(x0, y0, x1, y1, m, cfg);
}

namespace maze_detail {

RoutePath heap_route(int x0, int y0, int x1, int y1, const RouteCostModel& m,
                     const MazeConfig& cfg) {
    const GridF& ch = *m.cost_h;
    const GridF& cv = *m.cost_v;

    const CellWindow win =
        maze_window(x0, y0, x1, y1, ch.width(), ch.height(), cfg);
    const int wx0 = win.x0, wy0 = win.y0, wx1 = win.x1, wy1 = win.y1;
    const int w = win.width();
    const int h = win.height();
    const int wh = w * h;

    auto node = [&](int x, int y, int dir) {
        return dir * wh + (y - wy0) * w + (x - wx0);
    };
    auto cell_cost = [&](int x, int y, int dir) {
        return dir == 0 ? ch.at(x, y) : cv.at(x, y);
    };

    const double inf = std::numeric_limits<double>::max();
    std::vector<double> dist(static_cast<size_t>(2 * wh), inf);
    std::vector<int> parent(static_cast<size_t>(2 * wh), -1);
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;

    for (int dir = 0; dir < 2; ++dir) {
        const int s = node(x0, y0, dir);
        dist[static_cast<size_t>(s)] = cell_cost(x0, y0, dir);
        pq.push({dist[static_cast<size_t>(s)], s});
    }

    const int dx[4] = {1, -1, 0, 0};
    const int dy[4] = {0, 0, 1, -1};

    int goal = -1;
    while (!pq.empty()) {
        const QEntry top = pq.top();
        pq.pop();
        if (top.cost > dist[static_cast<size_t>(top.idx)]) continue;
        const int dir = top.idx / wh;
        const int rem = top.idx % wh;
        const int x = wx0 + rem % w;
        const int y = wy0 + rem / w;
        if (x == x1 && y == y1) {
            goal = top.idx;
            break;
        }
        for (int k = 0; k < 4; ++k) {
            const int nx = x + dx[k], ny = y + dy[k];
            if (nx < wx0 || nx > wx1 || ny < wy0 || ny > wy1) continue;
            const int ndir = (dy[k] == 0) ? 0 : 1;
            const double step = cell_cost(nx, ny, ndir) +
                                (ndir != dir ? m.via_cost : 0.0);
            const int nn = node(nx, ny, ndir);
            const double nd = top.cost + step;
            if (nd < dist[static_cast<size_t>(nn)]) {
                dist[static_cast<size_t>(nn)] = nd;
                parent[static_cast<size_t>(nn)] = top.idx;
                pq.push({nd, nn});
            }
        }
    }

    if (goal < 0) return {};  // unreachable (cannot happen in-window)

    // The direction each cell was entered with defines which track it
    // occupies.
    std::vector<Step> steps;
    for (int cur = goal; cur >= 0; cur = parent[static_cast<size_t>(cur)]) {
        const int rem = cur % wh;
        steps.push_back({{wx0 + rem % w, wy0 + rem / w}, cur / wh});
    }
    return merge_runs(steps);
}

std::optional<RoutePath> bucket_route(int x0, int y0, int x1, int y1,
                                      const RouteCostModel& m,
                                      const MazeConfig& cfg) {
    const GridF& ch = *m.cost_h;
    const GridF& cv = *m.cost_v;
    const double via = m.via_cost;
    if (!(via >= 0.0 && via < kInf)) return std::nullopt;

    const CellWindow win =
        maze_window(x0, y0, x1, y1, ch.width(), ch.height(), cfg);
    const int w = win.width();
    const int h = win.height();

    // Padded layout: window cell (x, y) is
    // c = (y - win.y0 + 1) * W + (x - win.x0 + 1), and its nodes are 2c
    // (entered horizontally) and 2c + 1 (vertically). The one-cell border
    // costs +inf, so no relaxation ever enters it.
    const int W = w + 2;
    const size_t cells = static_cast<size_t>(W) * (h + 2);
    const size_t nodes = 2 * cells;
    // One block holds every per-call array of doubles; each is sized by
    // the window (DESIGN.md §17, Memory).
    auto block = std::make_unique_for_overwrite<double[]>(2 * nodes + cells +
                                                          2 * (w + h));
    double* const cost = block.get();
    double* const dist = cost + nodes;
    double* const heur = dist + nodes;
    double* const col_min = heur + cells;
    double* const row_min = col_min + w;
    double* const hx = row_min + h;
    double* const hy = hx + w;

    // One pass over the window, four cells at a time: the interleaved
    // copy, the minimum of cost_h in every column and of cost_v in every
    // row, the largest cost, and the sum of every cost minus itself, which
    // is 0 unless a cost is not finite.
    fill_inf(cost, 2 * static_cast<size_t>(W));
    fill_inf(cost + nodes - 2 * W, 2 * static_cast<size_t>(W));
    fill_inf(dist, nodes);
    fill_inf(col_min, static_cast<size_t>(w));
    VecD hi4 = VecD::zero(), nonfinite4 = VecD::zero();
    double hi = 0.0, nonfinite = 0.0;
    for (int y = 0; y < h; ++y) {
        const double* rh = &ch.at(win.x0, win.y0 + y);
        const double* rv = &cv.at(win.x0, win.y0 + y);
        double* row = cost + 2 * ((y + 1) * W + 1);
        row[-2] = row[-1] = row[2 * w] = row[2 * w + 1] = kInf;
        VecD rmin4 = VecD::set1(kInf);
        int x = 0;
        for (; x + simd::kLanes <= w; x += simd::kLanes) {
            const VecD a = VecD::loadu(rh + x), b = VecD::loadu(rv + x);
            interleave2(row + 2 * x, a, b);
            vmin(a, VecD::loadu(col_min + x)).storeu(col_min + x);
            rmin4 = vmin(b, rmin4);
            hi4 = vmax(vmax(a, b), hi4);
            nonfinite4 = nonfinite4 + ((a - a) + (b - b));
        }
        double rmin = lane_min(rmin4);
        for (; x < w; ++x) {
            const double a = rh[x], b = rv[x];
            row[2 * x] = a;
            row[2 * x + 1] = b;
            col_min[x] = std::min(col_min[x], a);
            rmin = std::min(rmin, b);
            hi = std::max(hi, std::max(a, b));
            nonfinite += (a - a) + (b - b);
        }
        row_min[y] = rmin;
    }
    // The cheapest cell (col_min and row_min together cover every cost)
    // and the dearest column or row minimum; the two arrays are adjacent.
    const auto [min_it, max_it] = std::minmax_element(col_min, hx);
    const double lo = *min_it, step_max = *max_it;
    if (!(lo > 0.0 && reduce_add(nonfinite4) + nonfinite == 0.0))
        return std::nullopt;
    hi = std::max(hi, lane_max(hi4));

    // Heuristic. A path from column x enters every column from x (not
    // included) to the goal's (included) horizontally, paying at least that
    // column's minimum, and every row likewise vertically; the two sums
    // bound the rest of the path from below. Neighbouring cells' sums
    // differ by one minimum, at most the entered cell's cost, so h is
    // consistent. Sums run outward from the goal; h is deflated so that
    // rounding cannot break consistency (DESIGN.md §17).
    auto lower_bound_sums = [](double* sum, const double* mins, int n,
                               int goal) {
        sum[goal] = 0.0;
        for (int i = goal - 1; i >= 0; --i) sum[i] = sum[i + 1] + mins[i + 1];
        for (int i = goal + 1; i < n; ++i) sum[i] = sum[i - 1] + mins[i - 1];
    };
    lower_bound_sums(hx, col_min, w, x1 - win.x0);
    lower_bound_sums(hy, row_min, h, y1 - win.y0);
    // The border's entries are never read: no relaxation enters the border.
    const double deflate = 1.0 - kSlack;
    for (int y = 0; y < h; ++y) {
        double* row = heur + (y + 1) * W + 1;
        const VecD hy4 = VecD::set1(hy[y]);
        int x = 0;
        for (; x + simd::kLanes <= w; x += simd::kLanes)
            ((VecD::loadu(hx + x) + hy4) * VecD::set1(deflate))
                .storeu(row + x);
        for (; x < w; ++x) row[x] = (hx[x] + hy[y]) * deflate;
    }

    // Keys are dist + h, in buckets lo / 2 wide. With h consistent a key
    // never falls along an edge, so a relaxation lands in the bucket being
    // drained or a later one, and rises by at most the step plus one
    // minimum: live keys span (hi + via + step_max) / width + 2 buckets.
    // The ring holds that many, rounded up to a power of two. It may have
    // up to twice as many slots as the window has nodes: step_max <= hi,
    // so every window whose plain Dijkstra ring ((hi + via) / width + 3
    // slots) fits in the node count fits here too.
    const double inv_width = 2.0 / lo;
    const double need = (hi + via + step_max) * inv_width + 3.0;
    if (!(need <= 4.0 * w * h)) return std::nullopt;
    int64_t ring = 1;
    while (static_cast<double>(ring) < need) ring *= 2;
    const int64_t mask = ring - 1;

    // Each bucket is a doubly linked list threaded through per-node
    // next/prev; a node is in at most one. prev == kPopped marks a node
    // taken off the queue, which a later improvement links in again.
    constexpr int kPopped = -2;
    auto links = std::make_unique_for_overwrite<int[]>(2 * nodes + ring);
    int* const next = links.get();
    int* const prev = next + nodes;
    int* const head = prev + nodes;
    std::fill_n(head, ring, -1);
    int64_t cur = 0;
    size_t live = 0;

    // Set n's dist to d and queue it. False only if the key falls outside
    // the live ring, which consistency rules out; the caller then falls
    // back rather than trust the argument.
    auto enqueue = [&](int n, double d) RDP_MAZE_INLINE {
        const double q = (d + heur[n >> 1]) * inv_width;
        if (!(q >= static_cast<double>(cur) &&
              q < static_cast<double>(cur + ring)))
            return false;
        if (dist[n] < kInf && prev[n] != kPopped) {
            // Queued: unlink it from the bucket its current key chose.
            if (prev[n] >= 0)
                next[prev[n]] = next[n];
            else
                head[static_cast<int64_t>((dist[n] + heur[n >> 1]) *
                                          inv_width) &
                     mask] = next[n];
            if (next[n] >= 0) prev[next[n]] = prev[n];
        } else {
            ++live;
        }
        dist[n] = d;
        int& first = head[static_cast<int64_t>(q) & mask];
        next[n] = first;
        prev[n] = -1;
        if (first >= 0) prev[first] = n;
        first = n;
        return true;
    };

    auto cell = [&](int x, int y) {
        return (y - win.y0 + 1) * W + (x - win.x0 + 1);
    };
    const int goal_cell = cell(x1, y1);
    const int s0 = 2 * cell(x0, y0);
    const double q0 =
        (std::min(cost[s0], cost[s0 + 1]) + heur[s0 >> 1]) * inv_width;
    if (!(q0 < 0x1p62)) return std::nullopt;
    cur = static_cast<int64_t>(q0);
    if (!enqueue(s0, cost[s0]) || !enqueue(s0 + 1, cost[s0 + 1]))
        return std::nullopt;

    // Drain every bucket up to the best goal dist's (h is 0 at the goal).
    // Goal nodes are not expanded: the heap search stops at its first one.
    const int g0 = 2 * goal_cell, g1 = g0 + 1;
    while (live > 0) {
        int& first = head[cur & mask];
        if (first < 0) {
            const double best = std::min(dist[g0], dist[g1]);
            if (best < kInf &&
                static_cast<double>(cur) >= std::floor(best * inv_width))
                break;
            ++cur;
            continue;
        }
        const int u = first;
        first = next[u];
        if (first >= 0) prev[first] = -1;
        prev[u] = kPopped;
        --live;
        const int c = u >> 1;
        if (c == goal_cell) continue;
        // Same expression as heap_route: dist + (cell cost + turn via).
        const double du = dist[u];
        const double via_h = (u & 1) ? via : 0.0;
        const double via_v = (u & 1) ? 0.0 : via;
        const int east = 2 * (c + 1), west = 2 * (c - 1);
        const int north = 2 * (c + W) + 1, south = 2 * (c - W) + 1;
        auto relax = [&](int nn, double nd) RDP_MAZE_INLINE {
            return !(nd < dist[nn]) || enqueue(nn, nd);
        };
        if (!relax(east, du + (cost[east] + via_h)) ||
            !relax(west, du + (cost[west] + via_h)) ||
            !relax(north, du + (cost[north] + via_v)) ||
            !relax(south, du + (cost[south] + via_v)))
            return std::nullopt;
    }

    // The heap search stops at whichever goal node it pops first: the one
    // with the smaller dist, unless they tie. Both are final here if their
    // bucket was drained, and otherwise lie beyond the best one's bucket.
    if (dist[g0] == dist[g1]) return std::nullopt;
    const int goal = dist[g0] < dist[g1] ? g0 : g1;
    // The consistency margin must exceed the rounding of keys this large.
    if (!(kSlack * lo > 0x1p-48 * (dist[goal] + 2.0 * (hi + via + lo))))
        return std::nullopt;

    // Tie certificate, which also walks the path back. The heap search
    // gives node n the first-popped predecessor q with
    // dist[q] + step(q, n) == dist[n]; every such q has a key no larger
    // than n's, so both searches have finalised it, with the same value,
    // and a predecessor that was never expanded cannot match. If exactly
    // one predecessor matches, the heap search chose it, whatever its pop
    // order, and the walk steps to it. Both start nodes are seeds without
    // a predecessor, so the walk ends in the start cell.
    const int start_cell = s0 >> 1;
    std::vector<Step> steps;
    for (int n = goal;;) {
        const int c = n >> 1, d = n & 1;
        steps.push_back({{win.x0 + c % W - 1, win.y0 + c / W - 1}, d});
        if (c == start_cell) break;
        const int a = 2 * (d ? c - W : c - 1), b = 2 * (d ? c + W : c + 1);
        const double dn = dist[n], straight = cost[n], turn = cost[n] + via;
        int matches = 0, from = -1;
        for (const int q : {a + d, b + d, a + 1 - d, b + 1 - d}) {
            if (dist[q] + ((q & 1) == d ? straight : turn) == dn) {
                ++matches;
                from = q;
            }
        }
        if (matches != 1) return std::nullopt;
        n = from;
    }
    return merge_runs(steps);
}

}  // namespace maze_detail

}  // namespace rdp
