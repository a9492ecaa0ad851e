#pragma once
// RUDY / PinRUDY congestion estimation (Spindler & Johannes, DATE'07) —
// the router-free estimator the paper contrasts with router-based
// congestion (Section I: RUDY "treats all regions within the BB equally,
// overlooking the specific congestion situation"). Provided so the
// framework can run with either congestion source
// (ablation_congestion_source bench) and so the criticism is reproducible.
//
// RUDY spreads each net's expected wirelength (w + h) uniformly over its
// bounding box; PinRUDY adds pin-count pressure. Demands are scaled to the
// router's track units so the same CongestionMap/Eq. (3) machinery applies.

#include "db/design.hpp"
#include "grid/bin_grid.hpp"
#include "grid/congestion_map.hpp"
#include "router/global_router.hpp"

namespace rdp {

struct RudyConfig {
    /// Demand contribution per pin (matches the router's via pressure).
    double pin_weight = 0.25;
    /// Nets above this degree are skipped (match the BB-penalty cap).
    int max_degree = 64;
};

/// Declared only so rudy_congestion keeps its signature (see below); RUDY
/// keeps no state between calls.
struct IncrementalRudyState;

/// Classic RUDY: expected wirelength per bin, in track units
/// (wirelength-in-bin / mean G-cell extent).
GridF rudy_map(const Design& d, const BinGrid& grid, const RudyConfig& cfg = {});

/// Pin count per bin, weighted by cfg.pin_weight.
GridF pin_rudy_map(const Design& d, const BinGrid& grid,
                   const RudyConfig& cfg = {});

/// Full congestion map with RUDY + PinRUDY demand and the router's
/// capacity model (so Eq. (3) values are directly comparable with
/// router-based maps), built from scratch on every call.
///
/// The last parameter is unused. The end-to-end benchmark's traced build
/// wraps this function by its mangled name, which includes that
/// parameter; it is removed once the in-source run trace (ROADMAP item 3)
/// retires the link-time wrap.
CongestionMap rudy_congestion(const Design& d, const BinGrid& grid,
                              const RouterConfig& router_cfg = {},
                              const RudyConfig& cfg = {},
                              IncrementalRudyState* unused = nullptr);

}  // namespace rdp
