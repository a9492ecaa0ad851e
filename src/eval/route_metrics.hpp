#pragma once
// Post-placement routing evaluation — the repo's stand-in for the Innovus
// global+detailed routing runs of the paper's Table I. The final placement
// is routed once more at evaluation resolution (finer grid, more rip-up
// rounds) and the detailed-routing metrics are derived:
//   DRWL    — routed wirelength (+ pin stubs),
//   #DRVias — vias from layer assignment,
//   #DRVs   — violation proxy (see drv_proxy.hpp),
//   RT      — wall-clock of this evaluation routing.

#include "db/design.hpp"
#include "eval/drv_proxy.hpp"
#include "router/global_router.hpp"

namespace rdp {

struct EvalConfig {
    /// Evaluation G-cell grid per side (power of two); typically 2x the
    /// placement grid for a finer, "detailed-routing-like" look.
    int grid_bins = 128;
    RouterConfig router = [] {
        RouterConfig rc;
        rc.rrr_rounds = 3;
        return rc;
    }();
    DrvProxyConfig drv;
    /// Extra wirelength per pin for the in-cell stub (fraction of the mean
    /// G-cell pitch).
    double pin_stub_frac = 0.25;
};

struct EvalMetrics {
    double drwl = 0.0;        ///< detailed-routing wirelength proxy (DBU)
    long long vias = 0;       ///< #DRVias
    long long drvs = 0;       ///< #DRVs proxy
    DrvReport drv_detail;
    double route_seconds = 0.0;
    double total_overflow = 0.0;
    int overflowed_gcells = 0;
};

/// Route `d` at evaluation resolution and compute the Table I metrics.
/// Throws ConfigError for a grid_bins that is not a power of two or an
/// invalid router config
/// (validate_router_config).
EvalMetrics evaluate_placement(const Design& d, const EvalConfig& cfg = {});

}  // namespace rdp
