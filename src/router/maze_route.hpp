#pragma once
// Maze (Dijkstra) routing fallback. Pattern routing explores only L and Z
// shapes; when a connection still overflows after rip-up-and-reroute, the
// router escalates to a full shortest-path search on the same directional
// cost grids (plus the via cost at every turn), restricted to a window
// around the connection. This mirrors the pattern→maze escalation of
// production global routers.

#include <algorithm>

#include "router/pattern_route.hpp"
#include "util/geometry.hpp"

namespace rdp {

struct MazeConfig {
    /// Window margin around the endpoints' bounding box, in G-cells.
    int window_margin = 8;
};

/// Inclusive box of G-cells [x0, x1] x [y0, y1].
struct CellWindow {
    int x0 = 0, y0 = 0, x1 = 0, y1 = 0;

    int width() const { return x1 - x0 + 1; }
    int height() const { return y1 - y0 + 1; }
    long long area() const {
        return static_cast<long long>(width()) * height();
    }
    /// Does the window share a cell with the span's box?
    bool touches(const RouteSeg& s) const {
        return std::min(s.x0, s.x1) <= x1 && std::max(s.x0, s.x1) >= x0 &&
               std::min(s.y0, s.y1) <= y1 && std::max(s.y0, s.y1) >= y0;
    }
};

/// The window maze_route searches between (x0,y0) and (x1,y1) on an
/// nx x ny grid: the endpoints' bounding box grown by the margin, clamped
/// to the grid. Every L/Z pattern between the endpoints lies inside it too.
CellWindow maze_window(int x0, int y0, int x1, int y1, int nx, int ny,
                       const MazeConfig& cfg);

/// Shortest path from (x0,y0) to (x1,y1) under the cost model, restricted
/// to the window. Returns an empty path only if the window somehow
/// disconnects the endpoints (cannot happen for margin >= 0 since the
/// window always contains both endpoints and is rectangular).
RoutePath maze_route(int x0, int y0, int x1, int y1, const RouteCostModel& m,
                     const MazeConfig& cfg = {});

}  // namespace rdp
