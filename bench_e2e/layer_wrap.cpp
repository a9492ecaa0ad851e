// Per-layer timing for rdp_e2e_traced, measured from outside src/.
//
// The traced link passes -Wl,--wrap=<symbol> for every entry of
// layers.def, so each cross-object call into a layer lands in the
// __wrap_<symbol> defined here, which times it and forwards to
// __real_<symbol>. Spans are kept only for calls on the main thread (the
// one that calls place()); calls from pool workers are counted with relaxed
// atomics. A span's self time is its duration minus the durations of the
// wrapped spans nested directly inside it, so over one place() call
// place.self_s plus the self times of everything below it adds up to the
// place() span exactly.
//
// Every call is attributed to a root: inside GlobalPlacer::place, inside
// evaluate_placement, or neither. That is what separates the router calls
// of the routability loop (route.*) from the evaluation routing (eval.*).

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "audit/invariant_audit.hpp"
#include "congestion/rudy.hpp"
#include "db/netlist_io.hpp"
#include "eval/route_metrics.hpp"
#include "legal/abacus.hpp"
#include "legal/detailed_place.hpp"
#include "legal/tetris.hpp"
#include "pinaccess/dynamic_density.hpp"
#include "pinaccess/rail_select.hpp"
#include "place/global_placer.hpp"
#include "place/routability_loop.hpp"

namespace {

enum class Group {
    place, stage2, objective, nesterov, wa, density, poisson, net_moving,
    cfield, rudy, route, pattern, maze, layer_assign, eval, drv_proxy, rails,
    dpa, tetris, abacus, dp, audit, read, count
};
constexpr int kGroups = static_cast<int>(Group::count);

enum Root { kOutside, kInPlace, kInEval, kRoots };

struct Stat {
    std::atomic<long long> calls{0};  // every thread
    double total_s = 0.0;             // main-thread spans only
    double self_s = 0.0;
};

/// Incremental-router counters of the router calls inside place().
struct RouteCounters {
    long long conns_total = 0;
    long long conns_rerouted = 0;
    long long rrr_rounds = 0;
    long long rrr_stalled = 0;
};

using Clock = std::chrono::steady_clock;

std::array<std::array<Stat, kGroups>, kRoots> g_stat;
RouteCounters g_route;
long long g_virtual_cells = 0;
long long g_cells_failed = 0;
std::atomic<int> g_root{kOutside};
const std::thread::id g_main_thread = std::this_thread::get_id();

Stat& stat(int root, Group g) {
    return g_stat[static_cast<size_t>(root)][static_cast<size_t>(g)];
}

int current_root() { return g_root.load(std::memory_order_relaxed); }

/// Open main-thread span: records its start and the time its nested
/// wrapped spans took, for the self-time subtraction.
class Span {
public:
    explicit Span(Group g) : g_(g), root_(current_root()), parent_(top_) {
        if (g == Group::place) root_ = kInPlace;
        if (g == Group::eval) root_ = kInEval;
        saved_root_ = g_root.exchange(root_, std::memory_order_relaxed);
        top_ = this;
        start_ = Clock::now();
    }
    ~Span() {
        const double dur =
            std::chrono::duration<double>(Clock::now() - start_).count();
        Stat& s = stat(root_, g_);
        s.total_s += dur;
        s.self_s += dur - children_s_;
        if (parent_ != nullptr) parent_->children_s_ += dur;
        top_ = parent_;
        g_root.store(saved_root_, std::memory_order_relaxed);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    int root() const { return root_; }

private:
    static inline Span* top_ = nullptr;
    Group g_;
    int root_;
    int saved_root_ = kOutside;
    Span* parent_;
    double children_s_ = 0.0;
    Clock::time_point start_;
};

// Counters read from a wrapped call's return value.
template <class T>
void on_result(const Span&, const T&) {}
void on_result(const Span& s, const rdp::RouteResult& r) {
    if (s.root() != kInPlace) return;
    g_route.conns_total += r.inc_conns_total;
    g_route.conns_rerouted += r.inc_conns_rerouted;
    g_route.rrr_rounds += r.rrr_rounds_executed;
    g_route.rrr_stalled += r.rrr_rounds_stalled;
}
void on_result(const Span&, const rdp::NetMovingResult& r) {
    g_virtual_cells += r.virtual_cells_created;
}
void on_result(const Span&, const rdp::LegalizeStats& r) {
    g_cells_failed += r.cells_failed;
}

template <class Ret, class Call>
Ret traced(Group g, Call&& call) {
    stat(current_root(), g).calls.fetch_add(1, std::memory_order_relaxed);
    // pattern_route_into runs mostly on pool workers: counted, never timed.
    if (g == Group::pattern || std::this_thread::get_id() != g_main_thread)
        return call();
    const Span span(g);
    if constexpr (std::is_void_v<Ret>) {
        call();
    } else {
        Ret r = call();
        on_result(span, r);
        return r;
    }
}

/// First word of a pointer to member function: the code address of a
/// non-virtual member under the Itanium C++ ABI.
template <class Pmf>
const void* code_address(Pmf pmf) {
    const void* p = nullptr;
    std::memcpy(&p, &pmf, sizeof p);
    return p;
}

struct Wrapped {
    const char* symbol;
    const void* resolved;  // what the C++ declaration links to
    const void* wrapper;
};
std::vector<Wrapped>& wrapped() {
    static std::vector<Wrapped> list;
    return list;
}
struct Register {
    Register(const char* symbol, const void* resolved, const void* wrapper) {
        wrapped().push_back({symbol, resolved, wrapper});
    }
};

}  // namespace

#define RDP_TAIL(...) __VA_OPT__(, ) __VA_ARGS__

#define RDP_LAYER_FN(group, sym, Ret, fn, params, args)                      \
    extern "C" Ret __real_##sym params;                                     \
    extern "C" Ret __wrap_##sym params {                                    \
        return traced<Ret>(Group::group,                                    \
                           [&]() -> Ret { return __real_##sym args; });     \
    }                                                                       \
    namespace {                                                             \
    const Register reg_##sym(#sym,                                          \
                             reinterpret_cast<const void*>(                 \
                                 static_cast<Ret(*) params>(&fn)),          \
                             reinterpret_cast<const void*>(&__wrap_##sym)); \
    }

#define RDP_LAYER_MEM(group, sym, Ret, Class, method, cv, params, args)      \
    extern "C" Ret __real_##sym(cv Class* self RDP_TAIL params);            \
    extern "C" Ret __wrap_##sym(cv Class* self RDP_TAIL params) {           \
        return traced<Ret>(Group::group, [&]() -> Ret {                     \
            return __real_##sym(self RDP_TAIL args);                        \
        });                                                                 \
    }                                                                       \
    namespace {                                                             \
    const Register reg_##sym(                                               \
        #sym,                                                               \
        code_address(static_cast<Ret (Class::*) params cv>(&Class::method)),\
        reinterpret_cast<const void*>(&__wrap_##sym));                      \
    }

#include "layers.def"

/// Every per-layer metric of this process as one JSON object. Throws when
/// a layers.def entry's mangled name does not belong to its declared
/// signature (the wrapper would then be called with the wrong ABI).
std::string layer_metrics_json() {
    for (const Wrapped& w : wrapped())
        if (w.resolved != w.wrapper)
            throw std::runtime_error(std::string("layers.def: ") + w.symbol +
                                     " does not match its declared signature");

    auto calls = [](Group g) {
        long long n = 0;
        for (int r = 0; r < kRoots; ++r) n += stat(r, g).calls.load();
        return static_cast<double>(n);
    };
    auto total = [](Group g) {
        double t = 0.0;
        for (int r = 0; r < kRoots; ++r) t += stat(r, g).total_s;
        return t;
    };
    auto self = [](Group g) {
        double t = 0.0;
        for (int r = 0; r < kRoots; ++r) t += stat(r, g).self_s;
        return t;
    };
    auto per_call_us = [](double s, double n) { return n > 0 ? 1e6 * s / n : 0.0; };

    // Self time of everything wrapped below place(): with place.self_s it
    // must add up to place.s.
    double explained = 0.0;
    for (int g = 0; g < kGroups; ++g)
        if (g != static_cast<int>(Group::place))
            explained += stat(kInPlace, static_cast<Group>(g)).self_s;

    const double conns = static_cast<double>(g_route.conns_total);

    const std::vector<std::pair<const char*, double>> m = {
        {"place.s", stat(kInPlace, Group::place).total_s},
        {"place.self_s", stat(kInPlace, Group::place).self_s},
        {"place.explained_s", explained},
        {"place.stage2_s", total(Group::stage2)},
        {"place.stage2_self_s", self(Group::stage2)},
        {"place.objective_calls", calls(Group::objective)},
        {"place.objective_self_s", self(Group::objective)},
        {"place.nesterov_calls", calls(Group::nesterov)},
        {"place.nesterov_s", total(Group::nesterov)},
        {"wa.calls", calls(Group::wa)},
        {"wa.s", total(Group::wa)},
        {"wa.us_per_call", per_call_us(total(Group::wa), calls(Group::wa))},
        {"density.calls", calls(Group::density)},
        {"density.self_s", self(Group::density)},
        {"poisson.calls", calls(Group::poisson)},
        {"poisson.s", total(Group::poisson)},
        {"poisson.us_per_call",
         per_call_us(total(Group::poisson), calls(Group::poisson))},
        {"net_moving.calls", calls(Group::net_moving)},
        {"net_moving.s", total(Group::net_moving)},
        {"net_moving.virtual_cells", static_cast<double>(g_virtual_cells)},
        {"cfield.self_s", self(Group::cfield)},
        {"rudy.calls", calls(Group::rudy)},
        // Congestion-map source inside place(): the router, or RUDY when
        // use_rudy_congestion is set; one of the two is always running.
        {"congestion.map_s", stat(kInPlace, Group::route).total_s +
                                 stat(kInPlace, Group::rudy).total_s},
        // Router times and call counts cover every router call (eval.*
        // holds the evaluation part); the incremental-cache counters cover
        // the calls inside place() only, as evaluation routes without a cache.
        {"route.calls", calls(Group::route)},
        {"route.s", total(Group::route)},
        {"route.self_s", self(Group::route)},
        {"route.conns_total", conns},
        {"route.conns_rerouted", static_cast<double>(g_route.conns_rerouted)},
        {"route.cache_hit_rate",
         conns > 0 ? 1.0 - static_cast<double>(g_route.conns_rerouted) / conns
                   : 0.0},
        {"route.rrr_rounds", static_cast<double>(g_route.rrr_rounds)},
        {"route.rrr_stalled", static_cast<double>(g_route.rrr_stalled)},
        {"route.pattern_calls", calls(Group::pattern)},
        {"route.maze_calls", calls(Group::maze)},
        {"route.maze_s", total(Group::maze)},
        {"route.layer_assign_s", total(Group::layer_assign)},
        {"eval.route_s", stat(kInEval, Group::route).total_s},
        {"eval.maze_calls", static_cast<double>(stat(kInEval, Group::maze).calls)},
        {"eval.maze_s", stat(kInEval, Group::maze).total_s},
        {"eval.drv_proxy_s", total(Group::drv_proxy)},
        {"eval.self_s", self(Group::eval)},
        {"pinaccess.rails_s", total(Group::rails)},
        {"pinaccess.dpa_s", total(Group::dpa)},
        {"legal.tetris_s", total(Group::tetris)},
        {"legal.abacus_s", total(Group::abacus)},
        {"legal.dp_s", total(Group::dp)},
        {"legal.cells_failed", static_cast<double>(g_cells_failed)},
        {"audit.calls", calls(Group::audit)},
        {"audit.s", total(Group::audit)},
        {"db.read_s", total(Group::read)},
    };
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (size_t i = 0; i < m.size(); ++i)
        os << (i ? ", " : "") << "\"" << m[i].first << "\": " << m[i].second;
    os << "}";
    return os.str();
}
