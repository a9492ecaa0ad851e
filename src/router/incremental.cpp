#include "router/incremental.hpp"

namespace rdp {

namespace {

/// Size `g` to nx x ny and zero it without shrinking its allocation.
void reset_grid(GridF& g, int nx, int ny) {
    if (g.width() == nx && g.height() == ny) {
        g.fill(0.0);
    } else {
        g.resize(nx, ny);
    }
}

}  // namespace

void RouterScratch::reset(int nx, int ny) {
    reset_grid(cap_h, nx, ny);
    reset_grid(cap_v, nx, ny);
    reset_grid(dem_h, nx, ny);
    reset_grid(dem_v, nx, ny);
    reset_grid(bend_vias, nx, ny);
    reset_grid(pin_vias, nx, ny);
    reset_grid(hist_h, nx, ny);
    reset_grid(hist_v, nx, ny);
    reset_grid(cost_h, nx, ny);
    reset_grid(cost_v, nx, ny);
}

void IncrementalRouteState::invalidate() { valid = false; }

}  // namespace rdp
