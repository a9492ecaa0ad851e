#include "router/global_router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <numeric>

#include "audit/invariant_audit.hpp"
#include "router/net_decompose.hpp"
#include "util/config_error.hpp"
#include "util/parallel.hpp"

namespace rdp {

void validate_router_config(const RouterConfig& cfg) {
    require_at_least("router.rrr_rounds", cfg.rrr_rounds, 0);
    require_at_least("router.maze.window_margin", cfg.maze.window_margin, 0);
}

GlobalRouter::GlobalRouter(BinGrid grid, RouterConfig cfg)
    : grid_(grid), cfg_(std::move(cfg)) {
    assert(!cfg_.layers.empty());
}

std::vector<LayerSpec> GlobalRouter::effective_layers() const {
    std::vector<LayerSpec> out = cfg_.layers;
    for (LayerSpec& l : out) {
        const double extent =
            l.dir == Orient::Horizontal ? grid_.bin_h() : grid_.bin_w();
        l.capacity *= extent / cfg_.track_pitch;
    }
    return out;
}

void GlobalRouter::build_capacity(const Design& d, GridF& cap_h,
                                  GridF& cap_v) const {
    build_capacity_impl(d, effective_layers(), cap_h, cap_v);
}

void GlobalRouter::build_capacity_impl(const Design& d,
                                       const std::vector<LayerSpec>& layers,
                                       GridF& cap_h, GridF& cap_v) const {
    double base_h = 0.0, base_v = 0.0;
    for (const LayerSpec& l : layers)
        (l.dir == Orient::Horizontal ? base_h : base_v) += l.capacity;

    // Reuse the callers' grids when the geometry matches (a reused
    // scratch passes the same grids every call).
    if (cap_h.width() != grid_.nx() || cap_h.height() != grid_.ny())
        cap_h.resize(grid_.nx(), grid_.ny());
    if (cap_v.width() != grid_.nx() || cap_v.height() != grid_.ny())
        cap_v.resize(grid_.nx(), grid_.ny());
    for (auto& v : cap_h) v = base_h;
    for (auto& v : cap_v) v = base_v;

    // Pin blockage: pins eat tracks on the lowest horizontal layer, so
    // G-cells packed with cells lose horizontal capacity (local congestion).
    // Deterministic parallel scatter (ordered per-chunk merge).
    GridF pin_block = grid_.make_grid();
    parallel_splat(grid_, pin_block, static_cast<size_t>(d.num_pins()), 2048,
                   [&](GridF& g, size_t p) {
                       const GridIndex gi =
                           grid_.index_of(d.pin_position(static_cast<int>(p)));
                       g.at(gi.ix, gi.iy) += cfg_.pin_blockage;
                   });
    // Macro blockage: macros block all routing over them except the top
    // layer pair (a common modeling choice); scale capacity by uncovered
    // fraction plus a top-layer allowance.
    const double macro_pass = cfg_.layers.size() >= 4 ? 0.4 : 0.5;
    GridF macro_cover = grid_.make_grid();
    parallel_splat(grid_, macro_cover, d.cells.size(), 2048,
                   [&](GridF& g, size_t i) {
                       const Cell& c = d.cells[i];
                       if (!c.is_macro()) return;
                       grid_.splat_area(g, c.bbox());
                   });
    // PG-rail blockage on the lowest horizontal layer.
    GridF rail_cover = grid_.make_grid();
    parallel_splat(grid_, rail_cover, d.pg_rails.size(), 1024,
                   [&](GridF& g, size_t i) {
                       grid_.splat_area(g, d.pg_rails[i].box);
                   });
    // Routing blockages (ISPD 2015 style) remove capacity on all layers.
    GridF blockage_cover = grid_.make_grid();
    parallel_splat(grid_, blockage_cover, d.routing_blockages.size(), 1024,
                   [&](GridF& g, size_t i) {
                       grid_.splat_area(g, d.routing_blockages[i]);
                   });

    const double bin_area = grid_.bin_area();
    par::parallel_for(
        static_cast<size_t>(cap_h.height()), 1, [&](size_t yb, size_t ye) {
            for (size_t yi = yb; yi < ye; ++yi) {
                const int y = static_cast<int>(yi);
                for (int x = 0; x < cap_h.width(); ++x) {
                    cap_h.at(x, y) -= pin_block.at(x, y);
                    const double mc =
                        std::min(macro_cover.at(x, y) / bin_area, 1.0);
                    const double block = mc * (1.0 - macro_pass);
                    cap_h.at(x, y) *= (1.0 - block);
                    cap_v.at(x, y) *= (1.0 - block);
                    const double bc =
                        std::min(blockage_cover.at(x, y) / bin_area, 1.0);
                    cap_h.at(x, y) *= (1.0 - cfg_.routing_blockage_frac * bc);
                    cap_v.at(x, y) *= (1.0 - cfg_.routing_blockage_frac * bc);
                    const double rails =
                        std::min(rail_cover.at(x, y) / bin_area, 1.0);
                    cap_h.at(x, y) -= cfg_.pg_blockage_frac * base_h * rails;
                    cap_h.at(x, y) = std::max(cap_h.at(x, y), cfg_.min_capacity);
                    cap_v.at(x, y) = std::max(cap_v.at(x, y), cfg_.min_capacity);
                }
            }
        });
}

namespace {

/// Size `g` to nx x ny and zero it without shrinking its allocation.
void reset_grid(GridF& g, int nx, int ny) {
    if (g.width() == nx && g.height() == ny) {
        g.fill(0.0);
    } else {
        g.resize(nx, ny);
    }
}

/// Mutable routing state for one GlobalRouter::route() invocation. The
/// grids live in the (possibly reused) RouterScratch; this wrapper
/// only binds them to the cost/commit logic.
///
/// A speculative reroute binds a window-local copy instead: demand and
/// cost are the window's copies, whose cell (0,0) is grid cell (ox,oy),
/// while capacity and history stay the live grids (neither changes within
/// an RRR round). Bend vias are never read by a reroute, so a copy has
/// none.
struct RouteState {
    const RouterConfig& cfg;
    const GridF &cap_h, &cap_v;
    const GridF &hist_h, &hist_v;
    GridF &dem_h, &dem_v;
    GridF &cost_h, &cost_v;
    GridF* bend_vias;
    int ox = 0, oy = 0;

    RouteState(const RouterConfig& c, RouterScratch& ws)
        : cfg(c),
          cap_h(ws.cap_h),
          cap_v(ws.cap_v),
          hist_h(ws.hist_h),
          hist_v(ws.hist_v),
          dem_h(ws.dem_h),
          dem_v(ws.dem_v),
          cost_h(ws.cost_h),
          cost_v(ws.cost_v),
          bend_vias(&ws.bend_vias) {}

    /// Window copy of `live` for speculation (the copies are filled here).
    RouteState(const RouteState& live, RerouteSlot& slot, const CellWindow& w)
        : cfg(live.cfg),
          cap_h(live.cap_h),
          cap_v(live.cap_v),
          hist_h(live.hist_h),
          hist_v(live.hist_v),
          dem_h(slot.dem_h),
          dem_v(slot.dem_v),
          cost_h(slot.cost_h),
          cost_v(slot.cost_v),
          bend_vias(nullptr),
          ox(w.x0),
          oy(w.y0) {
        copy_window(live.dem_h, w, dem_h);
        copy_window(live.dem_v, w, dem_v);
        copy_window(live.cost_h, w, cost_h);
        copy_window(live.cost_v, w, cost_v);
    }

    static void copy_window(const GridF& src, const CellWindow& w, GridF& dst) {
        dst.resize(w.width(), w.height());  // within capacity: no allocation
        for (int y = 0; y < w.height(); ++y)
            std::copy_n(&src.at(w.x0, w.y0 + y), w.width(), &dst.at(0, y));
    }

    double cell_cost(double dem, double cap, double hist) const {
        const double util = (dem + 1.0) / cap;
        double c = 1.0 + hist + 2.0 * util;
        if (util > 1.0) c += cfg.overflow_penalty * (util - 1.0);
        return c;
    }

    void refresh_cost(int x, int y) {
        cost_h.at(x, y) = cell_cost(dem_h.at(x, y), cap_h.at(x + ox, y + oy),
                                    hist_h.at(x + ox, y + oy));
        cost_v.at(x, y) = cell_cost(dem_v.at(x, y), cap_v.at(x + ox, y + oy),
                                    hist_v.at(x + ox, y + oy));
    }

    /// Elementwise, so the parallel version is trivially deterministic.
    void refresh_all_costs() {
        par::parallel_for(
            static_cast<size_t>(cost_h.height()), 1, [&](size_t yb, size_t ye) {
                for (size_t y = yb; y < ye; ++y)
                    for (int x = 0; x < cost_h.width(); ++x)
                        refresh_cost(x, static_cast<int>(y));
            });
    }

    /// Add (sign=+1) or remove (sign=-1) a path's demand, updating costs.
    void commit(const RoutePath& p, double sign) {
        for (const RouteSeg& s : p.segs) {
            if (s.horizontal()) {
                const int lo = std::min(s.x0, s.x1), hi = std::max(s.x0, s.x1);
                for (int x = lo; x <= hi; ++x) {
                    dem_h.at(x, s.y0) += sign;
                    refresh_cost(x, s.y0);
                }
            } else {
                const int lo = std::min(s.y0, s.y1), hi = std::max(s.y0, s.y1);
                for (int y = lo; y <= hi; ++y) {
                    dem_v.at(s.x0, y) += sign;
                    refresh_cost(s.x0, y);
                }
            }
        }
        // One via per bend, charged at the end cell of the earlier span.
        if (bend_vias == nullptr) return;
        for (size_t i = 0; i + 1 < p.segs.size(); ++i) {
            bend_vias->at(p.segs[i].x1, p.segs[i].y1) += sign;
        }
    }

    /// Route connection a-b (in this state's coordinates, its old path
    /// already ripped up) into `p`: the pattern route, escalated to a maze
    /// search when L/Z patterns cannot escape the overflow (maze cost <=
    /// pattern cost by construction). Read-only on the grids, and every
    /// cell it reads lies in the maze window of a-b.
    void route(int ax, int ay, int bx, int by, PatternScratch& ps,
               RoutePath& p) const {
        const RouteCostModel model{&cost_h, &cost_v, 1.0};
        pattern_route_into(ax, ay, bx, by, model, cfg.max_bend_candidates, ps,
                           p);
        if (cfg.maze_fallback && path_would_overflow(p)) {
            RoutePath mz = maze_route(ax, ay, bx, by, model, cfg.maze);
            if (!mz.segs.empty() && path_cost(mz, model) < path_cost(p, model))
                p = std::move(mz);
        }
    }

    bool path_overflows(const RoutePath& p) const {
        for (const RouteSeg& s : p.segs) {
            if (s.horizontal()) {
                const int lo = std::min(s.x0, s.x1), hi = std::max(s.x0, s.x1);
                for (int x = lo; x <= hi; ++x)
                    if (dem_h.at(x, s.y0) > cap_h.at(x + ox, s.y0 + oy))
                        return true;
            } else {
                const int lo = std::min(s.y0, s.y1), hi = std::max(s.y0, s.y1);
                for (int y = lo; y <= hi; ++y)
                    if (dem_v.at(s.x0, y) > cap_v.at(s.x0 + ox, y + oy))
                        return true;
            }
        }
        return false;
    }

    /// Would committing `p` leave any of its cells overflowed? Read-only
    /// equivalent of commit(+1) / path_overflows / commit(-1): demand is
    /// evaluated as-if-committed, counting how often the path itself covers
    /// each cell (a cell crossed by two same-direction spans gains 2).
    bool path_would_overflow(const RoutePath& p) const {
        auto coverage = [&](bool horizontal, int x, int y) {
            double add = 0.0;
            for (const RouteSeg& s : p.segs) {
                if (s.horizontal() != horizontal) continue;
                if (horizontal) {
                    if (s.y0 == y && x >= std::min(s.x0, s.x1) &&
                        x <= std::max(s.x0, s.x1))
                        add += 1.0;
                } else {
                    if (s.x0 == x && y >= std::min(s.y0, s.y1) &&
                        y <= std::max(s.y0, s.y1))
                        add += 1.0;
                }
            }
            return add;
        };
        for (const RouteSeg& s : p.segs) {
            if (s.horizontal()) {
                const int lo = std::min(s.x0, s.x1), hi = std::max(s.x0, s.x1);
                for (int x = lo; x <= hi; ++x)
                    if (dem_h.at(x, s.y0) + coverage(true, x, s.y0) >
                        cap_h.at(x + ox, s.y0 + oy))
                        return true;
            } else {
                const int lo = std::min(s.y0, s.y1), hi = std::max(s.y0, s.y1);
                for (int y = lo; y <= hi; ++y)
                    if (dem_v.at(s.x0, y) + coverage(false, s.x0, y) >
                        cap_v.at(s.x0 + ox, y + oy))
                        return true;
            }
        }
        return false;
    }
};

/// Accumulate a path's unit demand into the phase-A grids without
/// touching costs (phase A routes against a frozen baseline). Unit
/// increments on doubles are integer-valued, so the sums are exact.
void accumulate_path(GridF& dem_h, GridF& dem_v, GridF& bend_vias,
                     const RoutePath& p) {
    for (const RouteSeg& s : p.segs) {
        if (s.horizontal()) {
            const int lo = std::min(s.x0, s.x1), hi = std::max(s.x0, s.x1);
            for (int x = lo; x <= hi; ++x) dem_h.at(x, s.y0) += 1.0;
        } else {
            const int lo = std::min(s.y0, s.y1), hi = std::max(s.y0, s.y1);
            for (int y = lo; y <= hi; ++y) dem_v.at(s.x0, y) += 1.0;
        }
    }
    for (size_t i = 0; i + 1 < p.segs.size(); ++i)
        bend_vias.at(p.segs[i].x1, p.segs[i].y1) += 1.0;
}

/// Shift every span of `p` by (dx, dy).
void translate(RoutePath& p, int dx, int dy) {
    for (RouteSeg& s : p.segs) {
        s.x0 += dx;
        s.x1 += dx;
        s.y0 += dy;
        s.y1 += dy;
    }
}

/// One rip-up-and-reroute pass over `order`, bitwise identical to
/// rerouting every connection that overflows, one at a time in order
/// (DESIGN.md §9). It runs in waves of the next K = helpers.width()
/// overflowing connections, rerouted at once: the first on the live grids
/// (it commits first), each other one on a copy of its maze window, while
/// that window covers at most 1/K of the grid. The leader then commits
/// the wave in order for as long as no span committed since the copies
/// were taken touches the next window. At one thread every wave is one
/// reroute on the live grids: the serial loop.
void reroute_pass(RouteState& st, RouterScratch& ws,
                  const std::vector<RouteConn>& conns, par::Helpers& helpers,
                  int& spec_committed, int& spec_discarded) {
    const int nx = st.cost_h.width(), ny = st.cost_h.height();
    const size_t width = static_cast<size_t>(helpers.width());
    // K larger windows cannot all be disjoint.
    const long long max_area =
        static_cast<long long>(nx) * ny / static_cast<long long>(width);
    if (ws.wave.size() < width) ws.wave.resize(width);
    if (ws.slots.size() < width) {
        ws.slots.resize(width);
        // A lone participant copies nothing: its waves are one reroute.
        if (width > 1)
            for (RerouteSlot& sl : ws.slots)
                for (GridF* g : {&sl.cost_h, &sl.cost_v, &sl.dem_h, &sl.dem_v})
                    g->raw().reserve(static_cast<size_t>(max_area));
    }
    std::vector<RoutePath>& paths = ws.paths;
    const std::vector<int>& order = ws.order;
    std::vector<WaveTask>& wave = ws.wave;
    std::vector<RouteSeg>& spans = ws.wave_spans;
    auto path_of = [&](int conn) -> RoutePath& {
        return paths[static_cast<size_t>(conn)];
    };

    // Reroute wave member i. The first is routed in place on the live
    // grids; every other one on a copy of its window: everything its
    // reroute reads lies there, and the kernels give the same result on a
    // translated copy.
    const std::function<void(size_t, int)> reroute_member = [&](size_t i,
                                                                int slot) {
        WaveTask& t = wave[i];
        const RouteConn& c = conns[static_cast<size_t>(t.conn)];
        RerouteSlot& sl = ws.slots[static_cast<size_t>(slot)];
        if (i == 0) {
            st.route(c.ax, c.ay, c.bx, c.by, sl.pattern, path_of(t.conn));
            return;
        }
        const CellWindow& w = t.window;
        RouteState local(st, sl, w);
        t.path.segs = path_of(t.conn).segs;
        translate(t.path, -w.x0, -w.y0);
        local.commit(t.path, -1.0);
        local.route(c.ax - w.x0, c.ay - w.y0, c.bx - w.x0, c.by - w.y0,
                    sl.pattern, t.path);
        translate(t.path, w.x0, w.y0);
    };

    size_t pos = 0;
    while (true) {
        // The wave: the next overflowing connections in order, ending
        // before a second one whose window is too large to copy.
        size_t n = 0;
        for (size_t q = pos; q < order.size() && n < width; ++q) {
            const int idx = order[q];
            if (!st.path_overflows(path_of(idx))) continue;
            const RouteConn& c = conns[static_cast<size_t>(idx)];
            const CellWindow w =
                maze_window(c.ax, c.ay, c.bx, c.by, nx, ny, st.cfg.maze);
            if (n > 0 && w.area() > max_area) break;
            wave[n].pos = static_cast<int>(q);
            wave[n].conn = idx;
            wave[n].window = w;
            ++n;
        }
        if (n == 0) return;

        // The first member is ripped up on the live grids before the
        // copies are taken, so its later commit is the only change of
        // the wave the copies have not seen.
        st.commit(path_of(wave[0].conn), -1.0);
        helpers.run(n, reroute_member);

        // Commit walk, in order. It stops at the first member whose window
        // a commit of this wave touched, or at a connection between two
        // members that the commits pushed into overflow (the serial loop
        // reroutes it there); the next wave starts at that point.
        const RoutePath& first = path_of(wave[0].conn);
        st.commit(first, +1.0);
        if (n > 1) spans.assign(first.segs.begin(), first.segs.end());
        pos = static_cast<size_t>(wave[n - 1].pos) + 1;
        size_t accepted = 1;
        for (; accepted < n; ++accepted) {
            WaveTask& t = wave[accepted];
            size_t q = static_cast<size_t>(wave[accepted - 1].pos) + 1;
            while (q < static_cast<size_t>(t.pos) &&
                   !st.path_overflows(path_of(order[q])))
                ++q;
            if (q < static_cast<size_t>(t.pos)) {
                pos = q;
                break;
            }
            if (std::any_of(spans.begin(), spans.end(), [&](const RouteSeg& s) {
                    return t.window.touches(s);
                })) {
                pos = static_cast<size_t>(t.pos);
                break;
            }
            RoutePath& p = path_of(t.conn);
            assert(st.path_overflows(p));
            st.commit(p, -1.0);
            spans.insert(spans.end(), p.segs.begin(), p.segs.end());
            p.segs.swap(t.path.segs);
            st.commit(p, +1.0);
            spans.insert(spans.end(), p.segs.begin(), p.segs.end());
        }
        spec_committed += static_cast<int>(accepted - 1);
        spec_discarded += static_cast<int>(n - accepted);
    }
}

}  // namespace

void RouterScratch::reset(int nx, int ny) {
    for (GridF* g : {&cap_h, &cap_v, &dem_h, &dem_v, &bend_vias, &pin_vias,
                     &hist_h, &hist_v, &cost_h, &cost_v})
        reset_grid(*g, nx, ny);
}

RouteResult GlobalRouter::route(const Design& d) const {
    RouterScratch ws;
    return route_impl(d, ws);
}

RouteResult GlobalRouter::route(const Design& d,
                                IncrementalRouteState* state) const {
    if (state == nullptr) return route(d);
    return route_impl(d, state->scratch);
}

RouteResult GlobalRouter::route_impl(const Design& d, RouterScratch& ws) const {
    const AuditStageScope audit_scope("global-route");
    // Resolve the layer stack once per invocation; both capacity building
    // and the final layer assignment consume the same copy.
    const std::vector<LayerSpec> layers = effective_layers();
    const int nx = grid_.nx(), ny = grid_.ny();

    ws.reset(nx, ny);
    RouteState st(cfg_, ws);
    build_capacity_impl(d, layers, ws.cap_h, ws.cap_v);

    // Pin vias: every pin climbs from the pin layer into the stack.
    parallel_splat(grid_, ws.pin_vias, static_cast<size_t>(d.num_pins()), 2048,
                   [&](GridF& g, size_t p) {
                       const GridIndex gi =
                           grid_.index_of(d.pin_position(static_cast<int>(p)));
                       g.at(gi.ix, gi.iy) += 1.0;
                   });

    // ---- Phase A: pattern-route every connection ------------------------
    // Baseline cost: capacity only (working demand and history are still
    // zero here). Phase-A routes are scored against this frozen model, so
    // they are independent of the routing order and run in parallel.
    st.refresh_all_costs();
    const RouteCostModel base_model{&ws.cost_h, &ws.cost_v, 1.0};

    // Per-net MST over the pin-bin centers, written into the net's fixed
    // connection slots (a net of degree k owns exactly k-1 slots), chunked
    // over nets with disjoint outputs.
    const size_t num_nets = d.nets.size();
    std::vector<int>& first = ws.net_first_conn;
    first.assign(num_nets + 1, 0);
    for (size_t ni = 0; ni < num_nets; ++ni) {
        const int deg = d.nets[ni].degree();
        first[ni + 1] = first[ni] + (deg >= 2 ? deg - 1 : 0);
    }
    std::vector<RouteConn>& conns = ws.conns;
    std::vector<RoutePath>& paths = ws.paths;
    conns.resize(static_cast<size_t>(first[num_nets]));
    paths.resize(conns.size());
    par::parallel_for(num_nets, 64, [&](size_t nb, size_t ne) {
        std::vector<Vec2> pts;
        std::vector<GridIndex> bins;
        for (size_t ni = nb; ni < ne; ++ni) {
            const Net& net = d.nets[ni];
            if (net.degree() < 2) continue;
            pts.clear();
            bins.clear();
            for (int p : net.pins) {
                const GridIndex gi = grid_.index_of(d.pin_position(p));
                bins.push_back(gi);
                pts.push_back(grid_.bin_center(gi.ix, gi.iy));
            }
            int slot = first[ni];
            for (const auto& [i, j] : manhattan_mst(pts)) {
                const GridIndex a = bins[static_cast<size_t>(i)];
                const GridIndex b = bins[static_cast<size_t>(j)];
                conns[static_cast<size_t>(slot++)] = {
                    a.ix, a.iy, b.ix, b.iy, static_cast<int>(ni),
                    std::abs(a.ix - b.ix) + std::abs(a.iy - b.iy)};
            }
            assert(slot == first[ni + 1]);
        }
    });
    par::parallel_for(conns.size(), 4, [&](size_t b, size_t e) {
        PatternScratch ps;
        for (size_t i = b; i < e; ++i) {
            const RouteConn& c = conns[i];
            pattern_route_into(c.ax, c.ay, c.bx, c.by, base_model,
                               cfg_.max_bend_candidates, ps, paths[i]);
        }
    });
    for (const RoutePath& p : paths)
        accumulate_path(ws.dem_h, ws.dem_v, ws.bend_vias, p);

    // ---- Phase B: negotiation-style rip-up-and-reroute ------------------
    // History starts from zero every invocation.
    st.refresh_all_costs();

    // Route short connections first (they have the fewest alternatives);
    // the stable sort keeps construction order on ties.
    std::vector<int>& order = ws.order;
    order.resize(conns.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int i, int j) {
        return conns[static_cast<size_t>(i)].len <
               conns[static_cast<size_t>(j)].len;
    });

    // Invariant audit: entering RRR, the working demand maps must equal
    // the sum of the committed paths exactly (phase A may not drop or
    // double-commit a connection).
    if (audit_enabled())
        audit::check_router_accounting(ws.dem_h, ws.dem_v, ws.bend_vias,
                                       paths, ws.hist_h, ws.hist_v);

    // Negotiation does not decrease total overflow monotonically, so keep
    // the best state seen. Overflow of the combined 2D map (wire + via
    // demand vs summed capacity) — the same metric
    // CongestionMap::total_overflow reports.
    auto total_overflow_now = [&] {
        return par::parallel_sum(
            static_cast<size_t>(ws.dem_h.height()), 1,
            [&](size_t yb, size_t ye) {
                double acc = 0.0;
                for (size_t yi = yb; yi < ye; ++yi) {
                    const int y = static_cast<int>(yi);
                    for (int x = 0; x < ws.dem_h.width(); ++x) {
                        const double dmd =
                            ws.dem_h.at(x, y) + ws.dem_v.at(x, y) +
                            cfg_.via_demand_weight *
                                (ws.bend_vias.at(x, y) + ws.pin_vias.at(x, y));
                        const double cap = ws.cap_h.at(x, y) + ws.cap_v.at(x, y);
                        acc += std::max(dmd - cap, 0.0);
                    }
                }
                return acc;
            });
    };
    double best_overflow = total_overflow_now();
    ws.best_paths = paths;
    ws.best_dem_h = ws.dem_h;
    ws.best_dem_v = ws.dem_v;
    ws.best_bends = ws.bend_vias;
    int rounds_executed = 0, rounds_stalled = 0;
    int spec_committed = 0, spec_discarded = 0;

    for (int round = 0; round < cfg_.rrr_rounds; ++round) {
        // Grow history costs where utilization exceeds capacity. Elementwise
        // over rows; the any-overflow flag ORs chunk partials in order.
        const bool any_overflow = par::parallel_reduce(
            static_cast<size_t>(ws.dem_h.height()), 1, false,
            [&](size_t yb, size_t ye) {
                bool any = false;
                for (size_t yi = yb; yi < ye; ++yi) {
                    const int y = static_cast<int>(yi);
                    for (int x = 0; x < ws.dem_h.width(); ++x) {
                        const double oh =
                            ws.dem_h.at(x, y) / ws.cap_h.at(x, y) - 1.0;
                        const double ov =
                            ws.dem_v.at(x, y) / ws.cap_v.at(x, y) - 1.0;
                        if (oh > 0.0) {
                            ws.hist_h.at(x, y) += cfg_.history_increment * oh;
                            any = true;
                        }
                        if (ov > 0.0) {
                            ws.hist_v.at(x, y) += cfg_.history_increment * ov;
                            any = true;
                        }
                    }
                }
                return any;
            },
            [](bool a, bool b) { return a || b; });
        if (!any_overflow) break;
        ++rounds_executed;
        st.refresh_all_costs();

        // One leader/helper region per round (DESIGN.md §9).
        par::with_helpers([&](par::Helpers& helpers) {
            reroute_pass(st, ws, conns, helpers, spec_committed,
                         spec_discarded);
        });

        // Invariant audit: a rip-up/reroute round must leave edge usage
        // equal to the committed segments (every commit(-1) matched by a
        // commit(+1)) with non-negative history costs.
        if (audit_enabled())
            audit::check_router_accounting(ws.dem_h, ws.dem_v, ws.bend_vias,
                                           paths, ws.hist_h, ws.hist_v);

        const double overflow = total_overflow_now();
        if (overflow < best_overflow) {
            best_overflow = overflow;
            ws.best_paths = paths;
            ws.best_dem_h = ws.dem_h;
            ws.best_dem_v = ws.dem_v;
            ws.best_bends = ws.bend_vias;
        } else {
            ++rounds_stalled;
        }
    }
    // Restore the best routing state seen across rounds (swaps keep the
    // scratch buffers' capacity alive for the next invocation).
    paths.swap(ws.best_paths);
    std::swap(ws.dem_h, ws.best_dem_h);
    std::swap(ws.dem_v, ws.best_dem_v);
    std::swap(ws.bend_vias, ws.best_bends);
    // Invariant audit: the restored snapshot must still be consistent
    // (paths and demand grids are saved/restored together).
    if (audit_enabled())
        audit::check_router_accounting(ws.dem_h, ws.dem_v, ws.bend_vias,
                                       paths, ws.hist_h, ws.hist_v);

    // Assemble results.
    RouteResult res;
    res.demand_h = ws.dem_h;
    res.demand_v = ws.dem_v;
    res.bend_vias = ws.bend_vias;
    res.pin_vias = ws.pin_vias;
    res.layers = assign_layers(layers, ws.dem_h, ws.dem_v,
                               ws.bend_vias, ws.pin_vias);
    res.num_vias = res.layers.total_vias;

    // 2D Dmd = wire demand + weighted via demand; Cap = directional sums.
    GridF dmd = ws.dem_h;
    grid_add(dmd, ws.dem_v);
    for (int y = 0; y < dmd.height(); ++y)
        for (int x = 0; x < dmd.width(); ++x)
            dmd.at(x, y) += cfg_.via_demand_weight *
                            (ws.bend_vias.at(x, y) + ws.pin_vias.at(x, y));
    GridF cap = ws.cap_h;
    grid_add(cap, ws.cap_v);
    res.congestion = CongestionMap(grid_, std::move(dmd), std::move(cap));
    res.total_overflow = res.congestion.total_overflow();
    res.overflowed_gcells = res.congestion.overflowed_cells();
    res.rrr_rounds_executed = rounds_executed;
    res.rrr_rounds_stalled = rounds_stalled;
    res.rrr_spec_committed = spec_committed;
    res.rrr_spec_discarded = spec_discarded;
    res.inc_conns_total = static_cast<int>(conns.size());
    res.inc_conns_rerouted = res.inc_conns_total;

    // Routed wirelength: traversed G-cells scaled by pitch per direction.
    double wl = 0.0;
    for (const RoutePath& p : paths) {
        for (const RouteSeg& s : p.segs) {
            if (s.horizontal())
                wl += std::abs(s.x1 - s.x0) * grid_.bin_w();
            else
                wl += std::abs(s.y1 - s.y0) * grid_.bin_h();
        }
        // Bends add half a pitch each (staircase detour inside the cell).
        wl += 0.5 * p.num_bends() * std::min(grid_.bin_w(), grid_.bin_h());
    }
    res.wirelength_dbu = wl;
    return res;
}

}  // namespace rdp
