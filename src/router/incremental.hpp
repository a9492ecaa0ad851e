#pragma once
// Persistent cross-call state for incremental global routing (DESIGN.md
// §12). The routability loop re-invokes GlobalRouter::route() at every
// outer iteration, but between iterations most nets' pin G-cells do not
// change. IncrementalRouteState caches, per net, the MST decomposition
// and the baseline-cost routes of the initial ("phase A") pass, keyed by
// the net's pin-bin signature, and maintains the phase-A demand maps by
// exact rip-up/commit deltas instead of rebuilding them.
//
// Soundness of the cache rests on two properties of the restructured
// route() (see global_router.cpp):
//   1. the MST decomposition is quantized to pin-bin centers, so it is a
//      pure function of the pin-bin signature;
//   2. phase-A routes are scored against a frozen capacity-only baseline
//      cost, so a cached route stays valid until its endpoint bounding
//      box touches a G-cell whose capacity changed (a "dirty" cell).
// Unit demand increments on doubles are integer-valued and therefore
// exact, so delta accounting is bitwise identical to a from-scratch
// rebuild — route(d, &state) == route(d) bitwise, for any RDP_THREADS.
//
// A deterministic periodic full rebuild (`rebuild_epoch`, env knob
// RDP_REBUILD_EPOCH) bounds drift: every Nth call with a valid cache
// drops it and rebuilds from scratch, independent of the placement
// trajectory, so results cannot depend on when a cache happened to fill.

#include <cstdint>
#include <vector>

#include "router/maze_route.hpp"
#include "router/pattern_route.hpp"
#include "util/grid2d.hpp"

namespace rdp {

/// One two-pin connection of a net's MST decomposition, in G-cell space.
/// Endpoints are pin bins (the decomposition is quantized to bin centers,
/// so intra-bin cell movement cannot change it).
struct RouteConn {
    int ax = 0, ay = 0;  ///< first endpoint bin
    int bx = 0, by = 0;  ///< second endpoint bin
    int net = -1;        ///< owning net index
    int len = 0;         ///< bin-space Manhattan length (routing-order key)
};

/// Lifetime counters of one IncrementalRouteState (monotone; survive
/// invalidate()). cache_hits / conns_total is the cache hit rate the
/// bench layer reports.
struct IncrementalRouteStats {
    long long calls = 0;          ///< route() invocations through this state
    long long full_rebuilds = 0;  ///< calls that rebuilt the cache wholesale
    long long conns_total = 0;    ///< connections seen, summed over calls
    long long conns_rerouted = 0; ///< phase-A reroutes, summed over calls
    long long cache_hits = 0;     ///< connections reused from the cache
    long long nets_rerouted = 0;  ///< nets with >= 1 phase-A reroute
};

/// One participant's rip-up-and-reroute buffers (DESIGN.md §9): pattern
/// scratch and the window-local copies of the cost and demand grids,
/// reserved once for the largest window a wave may copy.
struct RerouteSlot {
    GridF cost_h, cost_v;
    GridF dem_h, dem_v;
    PatternScratch pattern;
};

/// One reroute of an RRR wave: the connection, its position in the
/// routing order, its maze window, and the path a window copy gave it
/// (grid coordinates; the first member is routed in place).
struct WaveTask {
    int pos = 0;
    int conn = 0;
    CellWindow window;
    RoutePath path;
};

/// Reusable per-call routing buffers (hoisted out of route() so repeated
/// invocations through one state stop allocating; a stateless route()
/// carries a short-lived instance). Sized by RouterScratch-owning code.
struct RouterScratch {
    GridF cap_h, cap_v;
    GridF dem_h, dem_v;
    GridF bend_vias, pin_vias;
    GridF hist_h, hist_v;
    GridF cost_h, cost_v;
    GridF best_dem_h, best_dem_v, best_bends;
    std::vector<RoutePath> paths;       ///< working routes mutated by RRR
    std::vector<RoutePath> best_paths;  ///< best-overflow snapshot
    std::vector<int> order;             ///< routing order (short first)
    std::vector<int> todo;              ///< phase-A connections to reroute
    std::vector<int> pin_bin;           ///< this call's pin-bin signature
    std::vector<unsigned char> net_changed;
    std::vector<int> dirty_sat;         ///< (nx+1)*(ny+1) dirty-cell SAT
    std::vector<RerouteSlot> slots;     ///< per wave participant
    std::vector<WaveTask> wave;         ///< the current RRR wave
    std::vector<RouteSeg> wave_spans;   ///< spans the wave committed

    /// Size every working grid to nx x ny and zero it (keeps capacity).
    void reset(int nx, int ny);
};

/// Persistent phase-A cache surviving across GlobalRouter::route() calls.
/// Plain value type: the caller (the routability loop) owns it, threads it
/// through consecutive route() calls, and invalidate()s it whenever the
/// recovery layer rolls placement state back.
struct IncrementalRouteState {
    // Cache identity: the cached routes are only reusable against the
    // same netlist structure, grid geometry, and router cost model.
    bool valid = false;
    std::uint64_t design_key = 0;  ///< netlist structure hash
    std::uint64_t config_key = 0;  ///< grid geometry + router config hash
    int nx = 0, ny = 0;

    // Per-net cache, keyed by the pin-bin signature.
    std::vector<int> pin_bin;         ///< per pin: iy * nx + ix
    std::vector<int> net_first_conn;  ///< nets+1 offsets into conns/paths
    std::vector<RouteConn> conns;     ///< MST edges, net-major order
    std::vector<RoutePath> paths;     ///< cached phase-A route per conn

    // Capacity maps of the last call (for dirty-cell diffing) and the
    // phase-A demand maintained by exact rip-up/commit deltas.
    GridF cap_h, cap_v;
    GridF dem_h, dem_v, bend_vias;

    /// Deterministic full-rebuild period: every rebuild_epoch-th call with
    /// a valid cache rebuilds from scratch (<= 0 disables the epoch).
    int rebuild_epoch = 16;
    int calls_since_rebuild = 0;

    IncrementalRouteStats stats;

    /// Reusable per-call buffers (see RouterScratch).
    RouterScratch scratch;

    /// Drop the cached routes; the next route() call rebuilds from
    /// scratch. Buffers keep their capacity; stats and the epoch knob
    /// survive. The recovery layer calls this on every rollback so a
    /// restored checkpoint can never be scored against stale routes.
    void invalidate();
};

}  // namespace rdp
