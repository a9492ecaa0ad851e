#pragma once
// Congestion-estimating global router (paper Section II-B). Produces the
// Dmd/Cap maps that define the congestion map of Eq. (3) and the routed
// wirelength / via statistics used by the evaluation layer.
//
// Flow per invocation:
//   1. build per-direction capacity maps (layer stack minus pin blockage on
//      the lowest horizontal layer minus PG-rail blockage),
//   2. decompose every net into two-pin MST edges over pin-bin centers and
//      pattern-route each against a frozen capacity-only baseline cost
//      (phase A — order-independent, so routes are cacheable per net; see
//      router/incremental.hpp),
//   3. optional rip-up-and-reroute rounds with history costs on overflowed
//      G-cells (negotiation-style, phase B),
//   4. 3D layer assignment for via counting and the layered demand maps.
//
// route(d, &state) reconciles a persistent IncrementalRouteState instead
// of rebuilding phase A, and is bitwise identical to route(d).

#include <vector>

#include "db/design.hpp"
#include "grid/bin_grid.hpp"
#include "grid/congestion_map.hpp"
#include "router/incremental.hpp"
#include "router/layer_assign.hpp"
#include "router/maze_route.hpp"
#include "router/pattern_route.hpp"

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
    /// Speculative rip-up-and-reroute (DESIGN.md §9): reroutes computed
    /// on window copies by a wave and committed, or discarded because the
    /// wave's commit walk stopped at or before them. Reporting only; both
    /// are 0 at one thread and vary with the thread count, while the
    /// routing result does not.
    int rrr_spec_committed = 0;
    int rrr_spec_discarded = 0;
    /// Phase-A (initial pass) reconciliation statistics of this call.
    /// Reporting only: the routing result itself never depends on whether
    /// a persistent cache was in play. A stateless route() is a full
    /// rebuild, so conns_rerouted == conns_total there.
    int inc_conns_total = 0;
    int inc_conns_rerouted = 0;
    int inc_nets_rerouted = 0;
    bool inc_full_rebuild = true;
};

class GlobalRouter {
public:
    GlobalRouter(BinGrid grid, RouterConfig cfg = {});

    const BinGrid& grid() const { return grid_; }
    const RouterConfig& config() const { return cfg_; }

    /// Route the whole design and return aggregate maps and statistics.
    RouteResult route(const Design& d) const;

    /// Incremental variant: reconcile `state` (cached per-net phase-A
    /// routes and delta-maintained demand) instead of rebuilding from
    /// scratch. Bitwise identical to route(d) for any RDP_THREADS value;
    /// a null or incompatible state degenerates to a full rebuild. The
    /// caller owns the state and must invalidate() it when rolling the
    /// placement back (see src/recover).
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

    /// Shared implementation: a stateless route() runs it against a
    /// short-lived empty state, so "full" and "incremental" are one code
    /// path and bitwise identity between them is structural.
    RouteResult route_impl(const Design& d, IncrementalRouteState& state) const;

    BinGrid grid_;
    RouterConfig cfg_;
};

}  // namespace rdp
