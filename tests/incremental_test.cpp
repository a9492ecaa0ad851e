// Routing through a reused IncrementalRouteState (router/global_router.hpp):
// the state now carries only the router's scratch buffers, so a route call
// through a state kept across placements, grid sizes and router configs must
// be bitwise identical to a fresh route(d), at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "benchgen/generator.hpp"
#include "router/global_router.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace rdp {
namespace {

/// Bitwise comparison of everything a RouteResult reports about the
/// routing.
void expect_same_routing(const RouteResult& a, const RouteResult& b) {
    EXPECT_TRUE(a.demand_h == b.demand_h);
    EXPECT_TRUE(a.demand_v == b.demand_v);
    EXPECT_TRUE(a.bend_vias == b.bend_vias);
    EXPECT_TRUE(a.pin_vias == b.pin_vias);
    EXPECT_TRUE(a.congestion.demand() == b.congestion.demand());
    EXPECT_TRUE(a.congestion.capacity() == b.congestion.capacity());
    EXPECT_EQ(a.wirelength_dbu, b.wirelength_dbu);
    EXPECT_EQ(a.num_vias, b.num_vias);
    EXPECT_EQ(a.total_overflow, b.total_overflow);
    EXPECT_EQ(a.overflowed_gcells, b.overflowed_gcells);
    EXPECT_EQ(a.rrr_rounds_executed, b.rrr_rounds_executed);
    EXPECT_EQ(a.rrr_rounds_stalled, b.rrr_rounds_stalled);
}

TEST(GlobalRouterTest, ReusedScratchMatchesFreshRoute) {
    // One scratch carried through five perturbed placements, a 32^2 ->
    // 48^2 grid change and a relaxed router config (the recovery ladder's
    // relax-router rung) must route every call exactly as a fresh route(d)
    // does, at every thread count, and end on the same result at each.
    const int saved = par::max_threads();
    std::optional<RouteResult> serial;
    for (int threads : {1, 2, 8}) {
        par::set_max_threads(threads);
        GeneratorConfig gen;
        gen.seed = 7;
        gen.num_cells = 400;
        gen.num_macros = 2;
        Design d = generate_circuit(gen);
        std::vector<int> movable;
        for (int i = 0; i < d.num_cells(); ++i)
            if (d.cells[static_cast<size_t>(i)].movable()) movable.push_back(i);
        IncrementalRouteState state;
        const GlobalRouter r32(BinGrid(d.region, 32, 32));
        Rng rng(21);
        for (int step = 0; step < 5; ++step) {
            // Move 10 cells by up to 8% of the die extent.
            for (int k = 0; k < 10; ++k) {
                Cell& c = d.cells[static_cast<size_t>(movable[
                    static_cast<size_t>(rng.uniform_int(
                        0, static_cast<int>(movable.size()) - 1))])];
                c.pos = {std::clamp(c.pos.x + rng.uniform(-0.08, 0.08) *
                                                  d.region.width(),
                                    d.region.lx, d.region.hx),
                         std::clamp(c.pos.y + rng.uniform(-0.08, 0.08) *
                                                  d.region.height(),
                                    d.region.ly, d.region.hy)};
            }
            expect_same_routing(r32.route(d, &state), r32.route(d));
        }
        const BinGrid grid48(d.region, 48, 48);
        const GlobalRouter r48(grid48);
        expect_same_routing(r48.route(d, &state), r48.route(d));
        RouterConfig relaxed;
        relaxed.overflow_penalty *= 0.5;
        for (LayerSpec& l : relaxed.layers) l.capacity /= 0.5;
        const GlobalRouter r48r(grid48, relaxed);
        const RouteResult last = r48r.route(d, &state);
        expect_same_routing(last, r48r.route(d));
        EXPECT_GT(last.inc_conns_total, 0);
        EXPECT_EQ(last.inc_conns_rerouted, last.inc_conns_total);
        if (serial)
            expect_same_routing(last, *serial);
        else
            serial = last;
    }
    par::set_max_threads(saved);
}

}  // namespace
}  // namespace rdp
