#pragma once
// Congestion-estimating global router (paper Section II-B). Produces the
// Dmd/Cap maps that define the congestion map of Eq. (3) and the routed
// wirelength / via statistics used by the evaluation layer.
//
// Flow per invocation, always from scratch:
//   1. build per-direction capacity maps (layer stack minus pin blockage on
//      the lowest horizontal layer minus PG-rail blockage),
//   2. decompose every net into two-pin MST edges over pin-bin centers and
//      pattern-route each against a frozen capacity-only baseline cost
//      (phase A),
//   3. optional rip-up-and-reroute rounds with history costs on overflowed
//      G-cells (negotiation-style, phase B),
//   4. 3D layer assignment for via counting and the layered demand maps.
//
// A caller that routes repeatedly (the routability loop) passes one
// scratch along, route(d, &state), so that the per-call buffers are
// reused; the result never depends on what the scratch held before.

#include <vector>

#include "db/design.hpp"
#include "grid/bin_grid.hpp"
#include "grid/congestion_map.hpp"
#include "router/layer_assign.hpp"
#include "router/maze_route.hpp"
#include "router/pattern_route.hpp"
#include "util/grid2d.hpp"

namespace rdp {

struct RouterConfig {
    /// Routing stack above the pin layer; alternating preferred directions.
    /// `capacity` here is a *utilization factor*: the effective track count
    /// of a layer in a G-cell is capacity * (G-cell extent / track_pitch),
    /// so capacity scales with the grid resolution like a real router's.
    /// The bottom layer starts de-rated (pin escapes, PG stripes).
    std::vector<LayerSpec> layers = {
        {Orient::Horizontal, 0.7},
        {Orient::Vertical, 1.0},
        {Orient::Horizontal, 1.0},
        {Orient::Vertical, 1.0},
    };
    /// Distance between adjacent routing tracks (DBU).
    double track_pitch = 1.0;
    /// Capacity (track) units consumed on the lowest horizontal layer per
    /// pin inside a G-cell — this is what turns cell clustering into *local*
    /// routing congestion (paper Fig. 1(a) left).
    double pin_blockage = 0.08;
    /// Fraction of the lowest horizontal layer blocked where PG rails run.
    double pg_blockage_frac = 0.15;
    /// Fraction of all routing capacity removed under a routing blockage.
    double routing_blockage_frac = 0.8;
    /// Demand units contributed to Dmd (Eq. 3) per via event in a G-cell.
    double via_demand_weight = 0.25;
    /// Rip-up-and-reroute rounds after the initial routing pass.
    int rrr_rounds = 2;
    /// During RRR, escalate connections that still overflow after the
    /// pattern reroute to a windowed maze (Dijkstra) search.
    bool maze_fallback = true;
    MazeConfig maze;
    /// Z-shape bend candidates sampled per direction.
    int max_bend_candidates = 12;
    /// History cost added per unit of utilization overflow per RRR round.
    double history_increment = 1.5;
    /// Cost penalty slope once a G-cell's directional utilization passes 1.
    double overflow_penalty = 8.0;
    /// Minimum directional capacity after blockages (avoids divide-by-zero
    /// and infinitely expensive cells).
    double min_capacity = 0.5;
};

/// Throws ConfigError (util/config_error.hpp) for a negative rrr_rounds or
/// maze.window_margin, naming the field as it sits in PlacerConfig and
/// EvalConfig ("router.rrr_rounds", "router.maze.window_margin").
void validate_router_config(const RouterConfig& cfg);

/// One two-pin connection of a net's MST decomposition, in G-cell space.
/// Endpoints are pin bins (the decomposition is quantized to bin centers).
struct RouteConn {
    int ax = 0, ay = 0;  ///< first endpoint bin
    int bx = 0, by = 0;  ///< second endpoint bin
    int net = -1;        ///< owning net index
    int len = 0;         ///< bin-space Manhattan length (routing-order key)
};

/// Reusable per-call routing buffers. Every call overwrites all of them,
/// so a scratch passed through consecutive route() calls only saves the
/// allocations; a route() without one carries a short-lived instance.
struct RouterScratch {
    GridF cap_h, cap_v;
    GridF dem_h, dem_v;
    GridF bend_vias, pin_vias;
    GridF hist_h, hist_v;
    GridF cost_h, cost_v;
    GridF best_dem_h, best_dem_v, best_bends;
    std::vector<int> net_first_conn;    ///< nets+1 offsets into conns
    std::vector<RouteConn> conns;       ///< MST edges, net-major order
    std::vector<RoutePath> paths;       ///< working routes mutated by RRR
    std::vector<RoutePath> best_paths;  ///< best-overflow snapshot
    std::vector<int> order;             ///< routing order (short first)
    PatternScratch pattern;             ///< RRR's pattern-route buffers

    /// Size every working grid to nx x ny and zero it (keeps capacity).
    void reset(int nx, int ny);
};

/// The routability loop's scratch holder. Kept for bench_e2e's link-time
/// wrap, which names route(const Design&, IncrementalRouteState*); delete
/// with ROADMAP item 3.
struct IncrementalRouteState {
    RouterScratch scratch;
};

struct RouteResult {
    CongestionMap congestion;  ///< Dmd (wire+via) vs Cap, Eq. (3) source
    GridF demand_h;
    GridF demand_v;
    GridF bend_vias;
    GridF pin_vias;
    LayerAssignment layers;
    double wirelength_dbu = 0.0;  ///< routed wirelength (DRWL proxy input)
    long long num_vias = 0;
    double total_overflow = 0.0;
    int overflowed_gcells = 0;
    /// Executed rip-up-and-reroute rounds (rounds with no overflow left are
    /// skipped) and how many of them failed to improve the best overflow.
    /// stalled == executed with overflow remaining is the router-livelock
    /// signal the recovery layer (src/recover) consumes.
    int rrr_rounds_executed = 0;
    int rrr_rounds_stalled = 0;
    /// Connections routed by this call, both set to the same count. Kept
    /// for bench_e2e's link-time wrap, which sums them; delete with
    /// ROADMAP item 3.
    int inc_conns_total = 0;
    int inc_conns_rerouted = 0;
};

class GlobalRouter {
public:
    GlobalRouter(BinGrid grid, RouterConfig cfg = {});

    const BinGrid& grid() const { return grid_; }
    const RouterConfig& config() const { return cfg_; }

    /// Route the whole design and return aggregate maps and statistics.
    RouteResult route(const Design& d) const;

    /// route(d) with the buffers of `state->scratch` reused (a null state
    /// means a short-lived scratch). Bitwise identical to route(d). Kept
    /// for bench_e2e's link-time wrap; delete with ROADMAP item 3.
    RouteResult route(const Design& d, IncrementalRouteState* state) const;

    /// Capacity maps alone (per direction), for tests and the DRV proxy.
    void build_capacity(const Design& d, GridF& cap_h, GridF& cap_v) const;

    /// The layer stack with absolute per-G-cell track capacities resolved
    /// from the utilization factors, track pitch, and this grid's G-cell
    /// dimensions.
    std::vector<LayerSpec> effective_layers() const;

private:
    /// Capacity construction against an already-resolved layer stack, so
    /// route() resolves effective_layers() exactly once per invocation.
    void build_capacity_impl(const Design& d,
                             const std::vector<LayerSpec>& layers,
                             GridF& cap_h, GridF& cap_v) const;

    /// Shared implementation of both route() overloads.
    RouteResult route_impl(const Design& d, RouterScratch& ws) const;

    BinGrid grid_;
    RouterConfig cfg_;
};

}  // namespace rdp
