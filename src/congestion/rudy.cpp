#include "congestion/rudy.hpp"

#include <utility>

#include "grid/splat_kernel.hpp"
#include "util/simd.hpp"
#include "wirelength/hpwl.hpp"

namespace rdp {

GridF rudy_map(const Design& d, const BinGrid& grid, const RudyConfig& cfg) {
    GridF out = grid.make_grid();
    const double mean_extent = 0.5 * (grid.bin_w() + grid.bin_h());
    for (const Net& net : d.nets) {
        if (net.degree() < 2 || net.degree() > cfg.max_degree) continue;
        // Degenerate boxes are expanded to one G-cell of extent.
        Rect bb = net_bbox(d, net);
        if (bb.width() < grid.bin_w())
            bb = Rect::from_center(bb.center(), grid.bin_w(), bb.height());
        if (bb.height() < grid.bin_h())
            bb = Rect::from_center(bb.center(), bb.width(), grid.bin_h());
        const double wl = bb.width() + bb.height();
        const double area = bb.area();
        const double density =
            area > 0.0 ? net.weight * wl / (area * mean_extent) : 0.0;
        splat_rect<simd::VecD>(grid, out, bb, density);
    }
    return out;
}

GridF pin_rudy_map(const Design& d, const BinGrid& grid,
                   const RudyConfig& cfg) {
    GridF out = grid.make_grid();
    for (int p = 0; p < d.num_pins(); ++p) {
        const GridIndex g = grid.index_of(d.pin_position(p));
        out.at(g.ix, g.iy) += cfg.pin_weight;
    }
    return out;
}

CongestionMap rudy_congestion(const Design& d, const BinGrid& grid,
                              const RouterConfig& router_cfg,
                              const RudyConfig& cfg,
                              IncrementalRudyState* /*unused*/) {
    GridF dmd = rudy_map(d, grid, cfg);
    grid_add(dmd, pin_rudy_map(d, grid, cfg));

    const GlobalRouter router(grid, router_cfg);
    GridF cap_h, cap_v;
    router.build_capacity(d, cap_h, cap_v);
    GridF cap = cap_h;
    grid_add(cap, cap_v);
    return CongestionMap(grid, std::move(dmd), std::move(cap));
}

}  // namespace rdp
