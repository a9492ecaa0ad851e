#pragma once
// Maze (shortest-path) routing fallback. Pattern routing explores only L
// and Z shapes; when a connection still overflows after rip-up-and-reroute,
// the router escalates to a full shortest-path search on the same
// directional cost grids (plus the via cost at every turn), restricted to a
// window around the connection. This mirrors the pattern→maze escalation
// of production global routers. The search is goal-directed (A*), and its
// answer is certified per call against a binary-heap Dijkstra search.

#include <optional>

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
};

/// The window maze_route searches between (x0,y0) and (x1,y1) on an
/// nx x ny grid: the endpoints' bounding box grown by the margin, clamped
/// to the grid. Every L/Z pattern between the endpoints lies inside it too.
/// Precondition: cfg.window_margin >= 0 and both endpoints lie on the grid;
/// a negative margin can give a window that misses an endpoint (the public
/// entry points reject it with a ConfigError before any routing).
CellWindow maze_window(int x0, int y0, int x1, int y1, int nx, int ny,
                       const MazeConfig& cfg);

/// Shortest path from (x0,y0) to (x1,y1) under the cost model, restricted
/// to the window, with maze_window's precondition. With a non-negative
/// margin the window is a rectangle holding both endpoints, so the path is
/// never empty. The result is exactly maze_detail::heap_route's, ties
/// included: the goal-directed bucket-queue search answers when it can
/// certify that, and the heap search answers otherwise (DESIGN.md §17).
RoutePath maze_route(int x0, int y0, int x1, int y1, const RouteCostModel& m,
                     const MazeConfig& cfg = {});

/// The two searches behind maze_route, exposed for the equivalence tests.
namespace maze_detail {

/// Binary-heap Dijkstra over (cell, entry direction) nodes: the reference
/// whose pop order defines which of several equal-cost paths is returned.
RoutePath heap_route(int x0, int y0, int x1, int y1, const RouteCostModel& m,
                     const MazeConfig& cfg);

/// Goal-directed (A*) bucket-queue search over the same nodes, keyed by
/// dist + h, where h sums the window's per-column minima of cost_h and
/// per-row minima of cost_v between a cell and the goal. Returns
/// heap_route's path, or std::nullopt when it cannot prove that: a window
/// cost that is not positive and finite; a negative or non-finite via
/// cost; a cost ratio whose key span, (hi + via + largest minimum) /
/// (lo / 2) + 3 buckets, exceeds twice the window's node count; a key
/// outside the live ring, below the bucket being drained included; a goal
/// dist too large for the heuristic's consistency margin to cover its
/// rounding; or a tie that the heap's pop order would break (two goal
/// directions at equal cost, or a path node with two predecessors at its
/// cost).
std::optional<RoutePath> bucket_route(int x0, int y0, int x1, int y1,
                                      const RouteCostModel& m,
                                      const MazeConfig& cfg);

}  // namespace maze_detail

}  // namespace rdp
