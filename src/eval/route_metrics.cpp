#include "eval/route_metrics.hpp"

#include <chrono>

#include "util/config_error.hpp"

namespace rdp {

EvalMetrics evaluate_placement(const Design& d, const EvalConfig& cfg) {
    require_power_of_two("grid_bins", cfg.grid_bins);
    validate_router_config(cfg.router);
    EvalMetrics m;
    const BinGrid grid(d.region, cfg.grid_bins, cfg.grid_bins);
    GlobalRouter router(grid, cfg.router);

    const auto t0 = std::chrono::steady_clock::now();
    const RouteResult rr = router.route(d);
    const auto t1 = std::chrono::steady_clock::now();
    m.route_seconds = std::chrono::duration<double>(t1 - t0).count();

    const double stub =
        cfg.pin_stub_frac * 0.5 * (grid.bin_w() + grid.bin_h());
    m.drwl = rr.wirelength_dbu + stub * d.num_pins();
    m.vias = rr.num_vias;
    m.total_overflow = rr.total_overflow;
    m.overflowed_gcells = rr.overflowed_gcells;
    m.drv_detail = drv_proxy(d, rr, cfg.drv);
    m.drvs = m.drv_detail.total;
    return m;
}

}  // namespace rdp
