#include "router/maze_route.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

namespace rdp {

namespace {

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

    RoutePath path;
    if (goal < 0) return path;  // unreachable (cannot happen in-window)

    // Reconstruct the (cell, direction) sequence; the direction each cell
    // was entered with defines which track it occupies.
    struct Step {
        GridIndex cell;
        int dir;
    };
    std::vector<Step> steps;
    for (int cur = goal; cur >= 0; cur = parent[static_cast<size_t>(cur)]) {
        const int rem = cur % wh;
        steps.push_back({{wx0 + rem % w, wy0 + rem / w}, cur / wh});
    }
    std::reverse(steps.begin(), steps.end());

    // Merge maximal same-direction runs into spans (single-cell runs keep
    // their direction through RouteSeg::dir).
    size_t i = 0;
    while (i < steps.size()) {
        size_t j = i;
        while (j + 1 < steps.size() && steps[j + 1].dir == steps[i].dir) ++j;
        RouteSeg s;
        s.x0 = steps[i].cell.ix;
        s.y0 = steps[i].cell.iy;
        s.x1 = steps[j].cell.ix;
        s.y1 = steps[j].cell.iy;
        s.dir = steps[i].dir == 0 ? Orient::Horizontal : Orient::Vertical;
        path.segs.push_back(s);
        i = j + 1;
    }
    return path;
}

}  // namespace rdp
