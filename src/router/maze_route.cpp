#include "router/maze_route.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

namespace rdp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
    const size_t nodes = 2 * static_cast<size_t>(W) * (h + 2);
    std::vector<double> cost(nodes, kInf);
    double lo = kInf, hi = 0.0;
    for (int y = 0; y < h; ++y) {
        const double* rh = &ch.at(win.x0, win.y0 + y);
        const double* rv = &cv.at(win.x0, win.y0 + y);
        double* row = &cost[2 * static_cast<size_t>((y + 1) * W + 1)];
        for (int x = 0; x < w; ++x) {
            if (!(rh[x] > 0.0 && rh[x] < kInf && rv[x] > 0.0 && rv[x] < kInf))
                return std::nullopt;
            row[2 * x] = rh[x];
            row[2 * x + 1] = rv[x];
            lo = std::min({lo, rh[x], rv[x]});
            hi = std::max({hi, rh[x], rv[x]});
        }
    }

    // Buckets are lo / 2 wide. Every step costs at least lo, so it lands at
    // least one bucket past the one being drained, and a node's dist is
    // final once its bucket is reached. Live entries span at most
    // (hi + via) / width + 2 buckets; the ring holds that many, rounded up
    // to a power of two.
    const double inv_width = 2.0 / lo;
    const double need = (hi + via) * inv_width + 3.0;
    if (!(need <= 2.0 * w * h)) return std::nullopt;
    int64_t ring = 1;
    while (static_cast<double>(ring) < need) ring *= 2;
    const int64_t mask = ring - 1;
    auto bucket = [&](double d) { return static_cast<int64_t>(d * inv_width); };

    std::vector<double> dist(nodes, kInf);
    std::vector<int> parent(nodes), next(nodes), prev(nodes);
    std::vector<int> head(static_cast<size_t>(ring), -1);
    auto link = [&](int n, int64_t b) {
        int& first = head[static_cast<size_t>(b & mask)];
        next[n] = first;
        prev[n] = -1;
        if (first >= 0) prev[first] = n;
        first = n;
    };
    auto unlink = [&](int n) {
        if (prev[n] >= 0)
            next[prev[n]] = next[n];
        else
            head[static_cast<size_t>(bucket(dist[n]) & mask)] = next[n];
        if (next[n] >= 0) prev[next[n]] = prev[n];
    };

    auto cell = [&](int x, int y) {
        return (y - win.y0 + 1) * W + (x - win.x0 + 1);
    };
    const int goal_cell = cell(x1, y1);
    int64_t cur = std::numeric_limits<int64_t>::max();
    for (int dir = 0; dir < 2; ++dir) {
        const int s = 2 * cell(x0, y0) + dir;
        dist[s] = cost[s];
        parent[s] = -1;
        link(s, bucket(dist[s]));
        cur = std::min(cur, bucket(dist[s]));
    }
    int queued = 2;

    // Decrease-key of nn to nd, reached from u. False only if nd falls
    // outside the live ring, which the bucket width rules out; the caller
    // then falls back rather than trust the argument.
    auto relax = [&](int u, int nn, double nd) {
        if (!(nd < dist[nn])) return true;
        const int64_t b = bucket(nd);
        if (b <= cur || b - cur >= ring) return false;
        if (dist[nn] < kInf)
            unlink(nn);
        else
            ++queued;
        dist[nn] = nd;
        parent[nn] = u;
        link(nn, b);
        return true;
    };

    int goal = -1;
    while (queued > 0) {
        int u;
        while ((u = head[static_cast<size_t>(cur & mask)]) < 0) ++cur;
        head[static_cast<size_t>(cur & mask)] = next[u];
        if (next[u] >= 0) prev[next[u]] = -1;
        --queued;
        const int c = u >> 1;
        if (c == goal_cell) {
            goal = u;
            break;
        }
        // Same expression as heap_route: dist + (cell cost + turn via).
        const double du = dist[u];
        const double via_h = (u & 1) ? via : 0.0;
        const double via_v = (u & 1) ? 0.0 : via;
        const int east = 2 * (c + 1), west = 2 * (c - 1);
        const int north = 2 * (c + W) + 1, south = 2 * (c - W) + 1;
        if (!relax(u, east, du + (cost[east] + via_h)) ||
            !relax(u, west, du + (cost[west] + via_h)) ||
            !relax(u, north, du + (cost[north] + via_v)) ||
            !relax(u, south, du + (cost[south] + via_v)))
            return std::nullopt;
    }
    if (goal < 0) return std::nullopt;

    // The heap search stops at whichever goal node it pops first: the one
    // with the smaller dist, unless they tie. The other goal node is final
    // too if it sits in the current bucket; otherwise even its final dist
    // lies beyond this bucket, so no draining is needed to compare them.
    const int other = goal ^ 1;
    if (dist[other] == dist[goal]) return std::nullopt;
    if (dist[other] < dist[goal]) goal = other;

    // Tie certificate. The heap search gives node n the first-popped
    // predecessor q with dist[q] + step(q, n) == dist[n]; every such q has
    // a smaller dist than n, so both searches have finalised it, with the
    // same value. If exactly one predecessor matches, both searches chose
    // it, whatever their pop order.
    std::vector<Step> steps;
    for (int n = goal;; n = parent[n]) {
        const int c = n >> 1, d = n & 1;
        steps.push_back({{win.x0 + c % W - 1, win.y0 + c / W - 1}, d});
        if (parent[n] < 0) break;
        const int a = 2 * (d ? c - W : c - 1), b = 2 * (d ? c + W : c + 1);
        const double straight = cost[n], turn = cost[n] + via;
        const int matches = (dist[a + d] + straight == dist[n]) +
                            (dist[a + 1 - d] + turn == dist[n]) +
                            (dist[b + d] + straight == dist[n]) +
                            (dist[b + 1 - d] + turn == dist[n]);
        if (matches != 1) return std::nullopt;
    }
    return merge_runs(steps);
}

}  // namespace maze_detail

}  // namespace rdp
