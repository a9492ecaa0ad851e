// Integration tests for the global placement engine: objective wiring,
// filler handling, stage-1 spreading, and the routability loop.

#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "benchgen/generator.hpp"
#include "congestion/rudy.hpp"
#include "eval/route_metrics.hpp"
#include "legal/tetris.hpp"
#include "place/global_placer.hpp"
#include "place/objective.hpp"
#include "place/routability_loop.hpp"
#include "util/config_error.hpp"
#include "util/parallel.hpp"
#include "wirelength/hpwl.hpp"

namespace rdp {
namespace {

GeneratorConfig small_cfg(uint64_t seed = 7) {
    GeneratorConfig cfg;
    cfg.name = "placer-test";
    cfg.seed = seed;
    cfg.num_cells = 400;
    cfg.num_macros = 2;
    cfg.macro_area_frac = 0.1;
    cfg.utilization = 0.7;
    cfg.num_ios = 16;
    return cfg;
}

PlacerConfig fast_cfg(PlacerMode mode) {
    PlacerConfig cfg;
    cfg.mode = mode;
    cfg.grid_bins = 32;
    cfg.max_wl_iters = 120;
    cfg.stop_overflow = 0.12;
    cfg.max_route_iters = 3;
    cfg.inner_iters = 6;
    cfg.router.rrr_rounds = 1;
    cfg.dp.max_passes = 1;
    return cfg;
}

TEST(PlacerTest, AddFillersFillsWhitespace) {
    Design d = generate_circuit(small_cfg());
    PlacerConfig cfg;
    cfg.density.target_density = 0.9;
    cfg.filler_ratio = 1.0;
    const int before = d.num_cells();
    const int first = GlobalPlacer::add_fillers(d, cfg, 1);
    EXPECT_EQ(first, before);
    EXPECT_GT(d.num_cells(), before);
    // Filler area ~ target * free - movable.
    double filler_area = 0.0;
    for (int i = first; i < d.num_cells(); ++i) {
        EXPECT_TRUE(d.cells[i].movable());
        EXPECT_TRUE(d.cells[i].pins.empty());
        filler_area += d.cells[i].area();
    }
    const double spare = 0.9 * (d.region.area() - d.total_fixed_area()) -
                         (d.total_movable_area() - filler_area);
    EXPECT_NEAR(filler_area, spare, spare * 0.05 + 10.0);
}

TEST(PlacerTest, NoFillersWhenDense) {
    GeneratorConfig g = small_cfg();
    g.utilization = 0.95;
    Design d = generate_circuit(g);
    PlacerConfig cfg;
    cfg.density.target_density = 0.8;  // target below actual utilization
    const int before = d.num_cells();
    GlobalPlacer::add_fillers(d, cfg, 1);
    EXPECT_EQ(d.num_cells(), before);
}

TEST(PlacerTest, WirelengthStageSpreadsCells) {
    const Design input = generate_circuit(small_cfg());
    GlobalPlacer placer(fast_cfg(PlacerMode::WirelengthOnly));
    const PlaceResult res = placer.place(input);
    ASSERT_FALSE(res.overflow_history.empty());
    // Overflow must drop substantially from the centered start.
    EXPECT_LT(res.overflow_history.back(),
              0.6 * res.overflow_history.front());
    EXPECT_GT(res.wl_iters, 20);
    EXPECT_EQ(res.route_outer_iters, 0);
}

TEST(PlacerTest, ResultIsLegalAndFillerFree) {
    const Design input = generate_circuit(small_cfg());
    GlobalPlacer placer(fast_cfg(PlacerMode::Ours));
    const PlaceResult res = placer.place(input);
    EXPECT_EQ(res.placed.num_cells(), input.num_cells());
    EXPECT_TRUE(is_legal(res.placed));
    EXPECT_EQ(res.legal_stats.cells_failed, 0);
    EXPECT_GT(res.hpwl_final, 0.0);
    EXPECT_GT(res.place_seconds, 0.0);
}

TEST(PlacerTest, RoutabilityStageRuns) {
    const Design input = generate_circuit(small_cfg());
    GlobalPlacer placer(fast_cfg(PlacerMode::Ours));
    const PlaceResult res = placer.place(input);
    EXPECT_GT(res.route_outer_iters, 0);
    EXPECT_EQ(res.congestion_history.size(),
              static_cast<size_t>(res.route_outer_iters));
    EXPECT_EQ(res.penalty_history.size(),
              static_cast<size_t>(res.route_outer_iters));
}

TEST(PlacerTest, DeterministicForFixedSeed) {
    const Design input = generate_circuit(small_cfg());
    GlobalPlacer placer(fast_cfg(PlacerMode::Ours));
    const PlaceResult a = placer.place(input);
    const PlaceResult b = placer.place(input);
    EXPECT_DOUBLE_EQ(a.hpwl_final, b.hpwl_final);
    for (int i = 0; i < a.placed.num_cells(); ++i)
        EXPECT_EQ(a.placed.cells[i].pos, b.placed.cells[i].pos);
}

TEST(PlacerTest, AllModesComplete) {
    const Design input = generate_circuit(small_cfg());
    for (const PlacerMode mode : {PlacerMode::WirelengthOnly,
                                  PlacerMode::RouteBaseline,
                                  PlacerMode::Ours}) {
        GlobalPlacer placer(fast_cfg(mode));
        const PlaceResult res = placer.place(input);
        EXPECT_TRUE(is_legal(res.placed));
        EXPECT_GT(res.hpwl_final, 0.0);
    }
}

TEST(PlacerTest, HpwlComparableAcrossModes) {
    // Routability techniques must not blow up wirelength (paper: DRWL
    // ratios ~1.00 across all three columns).
    const Design input = generate_circuit(small_cfg());
    const double wl_only =
        GlobalPlacer(fast_cfg(PlacerMode::WirelengthOnly)).place(input)
            .hpwl_final;
    const double ours =
        GlobalPlacer(fast_cfg(PlacerMode::Ours)).place(input).hpwl_final;
    EXPECT_LT(ours, 1.5 * wl_only);
    EXPECT_GT(ours, 0.5 * wl_only);
}

TEST(MakeInflationSchemeTest, MatchesModeAndToggles) {
    PlacerConfig cfg;
    cfg.mode = PlacerMode::Ours;
    cfg.enable_mci = true;
    EXPECT_STREQ(make_inflation_scheme(cfg, 4)->name(), "momentum");
    cfg.enable_mci = false;
    EXPECT_STREQ(make_inflation_scheme(cfg, 4)->name(), "monotone");
    cfg.mode = PlacerMode::RouteBaseline;
    cfg.enable_mci = true;  // ignored outside Ours
    EXPECT_STREQ(make_inflation_scheme(cfg, 4)->name(), "monotone");
}

TEST(ObjectiveTest, GradientCombinesTerms) {
    Design d = generate_circuit(small_cfg());
    const std::vector<int> movable = d.movable_cells();
    std::vector<Vec2> pos(movable.size());
    for (size_t i = 0; i < movable.size(); ++i)
        pos[i] = d.cells[movable[i]].pos;

    const BinGrid grid(d.region, 32, 32);
    PlacementObjective obj(grid, {}, {}, 4.0 * grid.bin_w());
    obj.set_lambda1(0.0);
    std::vector<Vec2> g_wl_only;
    const ObjectiveTerms t0 = obj.evaluate(d, movable, pos, g_wl_only);
    EXPECT_GT(t0.wirelength, 0.0);
    EXPECT_GT(t0.wl_grad_l1, 0.0);
    EXPECT_GT(t0.density_grad_l1, 0.0);
    EXPECT_DOUBLE_EQ(t0.lambda2, 0.0);  // no congestion term attached

    obj.set_lambda1(5.0);
    std::vector<Vec2> g_with_density;
    obj.evaluate(d, movable, pos, g_with_density);
    // Density contribution changes the gradient.
    double diff = 0.0;
    for (size_t i = 0; i < movable.size(); ++i)
        diff += (g_with_density[i] - g_wl_only[i]).norm1();
    EXPECT_GT(diff, 0.0);
}

bool same_bits(double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool same_bits(const std::vector<Vec2>& a, const std::vector<Vec2>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!same_bits(a[i].x, b[i].x) || !same_bits(a[i].y, b[i].y))
            return false;
    return true;
}

/// RUDY's map of `d`, with the demand scaled up until it congests.
CongestionMap hot_map(const Design& d, const BinGrid& grid) {
    const CongestionMap m = rudy_congestion(d, grid);
    GridF dmd = m.demand();
    for (double& v : dmd) v *= 4.0;
    return CongestionMap(grid, dmd, m.capacity());
}

/// One objective run on a design: `steps` plain gradient steps from the
/// design's positions, with the net-moving term on a RUDY map. Records
/// every gradient and the terms that feed the schedules.
struct ObjectiveRun {
    Design d;
    std::vector<int> movable;
    std::vector<Vec2> pos;
    BinGrid grid;
    CongestionMap cmap;
    std::unique_ptr<CongestionField> field;
    PlacementObjective obj;
    std::vector<std::vector<Vec2>> grads;
    std::vector<double> terms;

    ObjectiveRun(uint64_t seed, bool bind)
        : d(generate_circuit(small_cfg(seed))),
          movable(d.movable_cells()),
          pos(d.positions(movable)),
          grid(d.region, 32, 32),
          cmap(hot_map(d, grid)),
          field(std::make_unique<CongestionField>(grid)),
          obj(grid, {}, {}, 4.0 * grid.bin_w()) {
        field->build(cmap);
        obj.set_lambda1(0.5);
        obj.set_congestion(&cmap, field.get());
        if (bind) obj.bind(d);
    }

    void step() {
        std::vector<Vec2> g;
        const ObjectiveTerms t = obj.evaluate(d, movable, pos, g);
        for (size_t i = 0; i < pos.size(); ++i) pos[i] -= g[i] * 1e-3;
        grads.push_back(std::move(g));
        terms.insert(terms.end(), {t.wirelength, t.density, t.congestion,
                                   t.lambda2, t.wl_grad_l1,
                                   t.density_grad_l1,
                                   static_cast<double>(t.num_congested_cells)});
    }
};

void expect_same_run(const ObjectiveRun& a, const ObjectiveRun& b) {
    ASSERT_EQ(a.grads.size(), b.grads.size());
    for (size_t k = 0; k < a.grads.size(); ++k)
        EXPECT_TRUE(same_bits(a.grads[k], b.grads[k])) << "step " << k;
    ASSERT_EQ(a.terms.size(), b.terms.size());
    for (size_t k = 0; k < a.terms.size(); ++k)
        EXPECT_TRUE(same_bits(a.terms[k], b.terms[k])) << "term " << k;
}

TEST(ObjectiveTest, BoundStateGivesPerCallBits) {
    // bind() builds the pin-slot layout, its buffers and the fixed density
    // once; evaluating through them must give the per-call bits.
    const int saved = par::max_threads();
    for (const int t : {1, 4}) {
        par::set_max_threads(t);
        ObjectiveRun per_call(7, false), bound(7, true);
        for (int k = 0; k < 4; ++k) {
            per_call.step();
            bound.step();
        }
        expect_same_run(per_call, bound);
        EXPECT_GT(bound.terms[2], 0.0);  // the net-moving term is on
    }
    par::set_max_threads(saved);
}

TEST(ObjectiveTest, InterleavedObjectivesKeepTheirBits) {
    // Two bound objectives on two designs, stepped alternately, give what
    // each gives alone: the per-run state lives in each objective.
    ObjectiveRun solo_a(7, true), solo_b(8, true);
    for (int k = 0; k < 4; ++k) solo_a.step();
    for (int k = 0; k < 4; ++k) solo_b.step();
    ObjectiveRun a(7, true), b(8, true);
    for (int k = 0; k < 4; ++k) {
        a.step();
        b.step();
    }
    expect_same_run(a, solo_a);
    expect_same_run(b, solo_b);
}

TEST(PlacerTest, InterleavedPlacersKeepTheirBits) {
    // Two placers on two designs, run A B A B in one process: each run
    // gives the placement its first run gave.
    const Design da = generate_circuit(small_cfg(7));
    const Design db = generate_circuit(small_cfg(8));
    PlacerConfig cfg_b = fast_cfg(PlacerMode::Ours);
    cfg_b.use_rudy_congestion = true;
    const GlobalPlacer pa(fast_cfg(PlacerMode::Ours)), pb(cfg_b);
    std::vector<Vec2> first_a, first_b;
    for (int round = 0; round < 2; ++round) {
        const PlaceResult ra = pa.place(da);
        const PlaceResult rb = pb.place(db);
        const std::vector<Vec2> got_a =
            ra.placed.positions(ra.placed.movable_cells());
        const std::vector<Vec2> got_b =
            rb.placed.positions(rb.placed.movable_cells());
        if (round == 0) {
            first_a = got_a;
            first_b = got_b;
            continue;
        }
        EXPECT_TRUE(same_bits(got_a, first_a));
        EXPECT_TRUE(same_bits(got_b, first_b));
    }
}

TEST(RoutabilityStageTest, StandaloneRunImprovesOrHoldsOverflow) {
    Design d = generate_circuit(small_cfg(9));
    // Pre-spread with the wirelength stage.
    PlacerConfig cfg = fast_cfg(PlacerMode::Ours);
    GlobalPlacer placer(cfg);
    PlaceResult pre = placer.place(d);
    // Run the routability stage directly on the legalized result.
    Design work = pre.placed;
    const std::vector<int> movable = work.movable_cells();
    const BinGrid grid(work.region, 32, 32);
    PlacementObjective obj(grid, cfg.density, cfg.netmove,
                           4.0 * grid.bin_w());
    obj.set_lambda1(1.0);
    const RoutabilityStats rs =
        run_routability_stage(work, movable, obj, cfg, {}, work.num_cells());
    EXPECT_GT(rs.outer_iters, 0);
    ASSERT_FALSE(rs.total_overflow.empty());
    ASSERT_EQ(rs.mean_inflation.size(), rs.total_overflow.size());
    for (const double m : rs.mean_inflation) EXPECT_GE(m, 0.9);
}

TEST(ConfigValidationTest, PlaceRejectsOutOfDomainFields) {
    const Design d = generate_circuit(small_cfg());
    static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    struct Case {
        const char* field;
        void (*apply)(PlacerConfig&);
    };
    const Case cases[] = {
        // Unchecked, crashes the maze router (SIGSEGV).
        {"router.maze.window_margin",
         [](PlacerConfig& c) { c.router.maze.window_margin = -3; }},
        // Unchecked, silently places on a 1 x 1 grid.
        {"grid_bins", [](PlacerConfig& c) { c.grid_bins = -8; }},
        {"grid_bins", [](PlacerConfig& c) { c.grid_bins = 0; }},
        // Unchecked, silently rounded up to a 64 x 64 grid.
        {"grid_bins", [](PlacerConfig& c) { c.grid_bins = 48; }},
        {"max_wl_iters", [](PlacerConfig& c) { c.max_wl_iters = -1; }},
        {"inner_iters", [](PlacerConfig& c) { c.inner_iters = -1; }},
        {"max_route_iters", [](PlacerConfig& c) { c.max_route_iters = -1; }},
        {"router.rrr_rounds",
         [](PlacerConfig& c) { c.router.rrr_rounds = -1; }},
        {"dc_weight", [](PlacerConfig& c) { c.dc_weight = -0.1; }},
        {"dc_weight", [](PlacerConfig& c) { c.dc_weight = kNaN; }},
        {"dpa_weight", [](PlacerConfig& c) { c.dpa_weight = -0.1; }},
        {"filler_ratio", [](PlacerConfig& c) { c.filler_ratio = -0.5; }},
        // Unchecked, a zero or NaN gamma trips the finite-gradients audit;
        // a negative one is run as given.
        {"gamma_frac", [](PlacerConfig& c) { c.gamma_frac = 0.0; }},
        {"gamma_frac", [](PlacerConfig& c) { c.gamma_frac = -1.0; }},
        {"gamma_frac", [](PlacerConfig& c) { c.gamma_frac = kNaN; }},
        // Unchecked, all three are accepted silently (the floor of gamma).
        {"gamma_min_frac", [](PlacerConfig& c) { c.gamma_min_frac = 0.0; }},
        {"gamma_min_frac", [](PlacerConfig& c) { c.gamma_min_frac = -1.0; }},
        {"gamma_min_frac", [](PlacerConfig& c) { c.gamma_min_frac = kNaN; }},
        // Unchecked, NaN makes the recovery layer degrade stage 1; -1 runs
        // with gamma at its floor.
        {"gamma_decay", [](PlacerConfig& c) { c.gamma_decay = -1.0; }},
        {"gamma_decay", [](PlacerConfig& c) { c.gamma_decay = kNaN; }},
        // Unchecked, NaN degrades the routability stage; -1 runs to a 3x
        // larger HPWL.
        {"lambda1_growth", [](PlacerConfig& c) { c.lambda1_growth = -1.0; }},
        {"lambda1_growth", [](PlacerConfig& c) { c.lambda1_growth = kNaN; }},
        // Unchecked, both silently disable the early stop.
        {"stop_overflow", [](PlacerConfig& c) { c.stop_overflow = -1.0; }},
        {"stop_overflow", [](PlacerConfig& c) { c.stop_overflow = kNaN; }},
        {"stop_patience", [](PlacerConfig& c) { c.stop_patience = -1; }},
        // Unchecked, -1 is a corrupted budget the recovery layer degrades;
        // NaN is accepted silently.
        {"inflation_budget_frac",
         [](PlacerConfig& c) { c.inflation_budget_frac = -1.0; }},
        {"inflation_budget_frac",
         [](PlacerConfig& c) { c.inflation_budget_frac = kNaN; }},
        // Unchecked, NaN never replaces the kept-best snapshot.
        {"keep_best_margin",
         [](PlacerConfig& c) { c.keep_best_margin = -1.0; }},
        {"keep_best_margin",
         [](PlacerConfig& c) { c.keep_best_margin = kNaN; }},
        // Unchecked, both make the recovery layer step in.
        {"route_lambda1_boost",
         [](PlacerConfig& c) { c.route_lambda1_boost = -1.0; }},
        {"route_lambda1_boost",
         [](PlacerConfig& c) { c.route_lambda1_boost = kNaN; }},
        // Unchecked (RouteBaseline mode), -1 corrupts the budget and NaN
        // the density mass.
        {"static_pg_weight",
         [](PlacerConfig& c) { c.static_pg_weight = -1.0; }},
        {"static_pg_weight",
         [](PlacerConfig& c) { c.static_pg_weight = kNaN; }},
        // The nested stage configs. Unchecked, a NaN target density
        // degrades stage 1 to 0 iterations (HPWL 2.6x); -1 and 0 disable
        // its early stop (120 of 120 iterations instead of 71); 2 stops it
        // after 25 (HPWL +18%).
        {"density.target_density",
         [](PlacerConfig& c) { c.density.target_density = kNaN; }},
        {"density.target_density",
         [](PlacerConfig& c) { c.density.target_density = -1.0; }},
        {"density.target_density",
         [](PlacerConfig& c) { c.density.target_density = 0.0; }},
        {"density.target_density",
         [](PlacerConfig& c) { c.density.target_density = 2.0; }},
        // Unchecked, -1 passes is accepted as 0; a NaN or negative
        // improvement floor is accepted silently.
        {"dp.max_passes", [](PlacerConfig& c) { c.dp.max_passes = -1; }},
        {"dp.min_improvement",
         [](PlacerConfig& c) { c.dp.min_improvement = kNaN; }},
        {"dp.min_improvement",
         [](PlacerConfig& c) { c.dp.min_improvement = -1.0; }},
        // Unchecked, a radius of -1 is read as 0; a vertical weight of -1
        // or NaN legalizes to an 87% or 3.1x larger HPWL.
        {"tetris.row_search_radius",
         [](PlacerConfig& c) { c.tetris.row_search_radius = -1; }},
        {"tetris.vertical_weight",
         [](PlacerConfig& c) { c.tetris.vertical_weight = -1.0; }},
        {"tetris.vertical_weight",
         [](PlacerConfig& c) { c.tetris.vertical_weight = kNaN; }},
        // Unchecked, a NaN alpha or gain trips the inflation-budget audit
        // and degrades stage 2; r_max below r_min breaks std::clamp's
        // precondition; the rest are accepted silently.
        {"mci.r_min", [](PlacerConfig& c) { c.mci.r_min = 0.0; }},
        {"mci.r_min", [](PlacerConfig& c) { c.mci.r_min = kNaN; }},
        {"mci.r_max", [](PlacerConfig& c) { c.mci.r_max = 0.5; }},
        {"mci.r_max", [](PlacerConfig& c) { c.mci.r_max = kNaN; }},
        {"mci.alpha", [](PlacerConfig& c) { c.mci.alpha = -1.0; }},
        {"mci.alpha", [](PlacerConfig& c) { c.mci.alpha = 2.0; }},
        {"mci.alpha", [](PlacerConfig& c) { c.mci.alpha = kNaN; }},
        {"mci.congestion_gain",
         [](PlacerConfig& c) { c.mci.congestion_gain = kNaN; }},
        {"mci.min_avg_congestion",
         [](PlacerConfig& c) { c.mci.min_avg_congestion = 0.0; }},
        {"mci.max_deflation",
         [](PlacerConfig& c) { c.mci.max_deflation = -1.0; }},
        // Unchecked, all are run as given: a distance scale of -1 reverses
        // the net-moving gradient.
        {"netmove.multi_pin_congestion_threshold",
         [](PlacerConfig& c) {
             c.netmove.multi_pin_congestion_threshold = kNaN;
         }},
        {"netmove.min_virtual_congestion",
         [](PlacerConfig& c) { c.netmove.min_virtual_congestion = -1.0; }},
        {"netmove.min_pin_distance_frac",
         [](PlacerConfig& c) { c.netmove.min_pin_distance_frac = 0.0; }},
        {"netmove.max_distance_scale",
         [](PlacerConfig& c) { c.netmove.max_distance_scale = -1.0; }},
        {"netmove.max_distance_scale",
         [](PlacerConfig& c) { c.netmove.max_distance_scale = kNaN; }},
        {"netmove.max_multi_pin_degree",
         [](PlacerConfig& c) { c.netmove.max_multi_pin_degree = -1; }},
        // Unchecked, both are run as given.
        {"rail_select.macro_expand_frac",
         [](PlacerConfig& c) { c.rail_select.macro_expand_frac = -2.0; }},
        {"rail_select.min_length_frac",
         [](PlacerConfig& c) { c.rail_select.min_length_frac = kNaN; }},
        {"rail_select.min_length_frac",
         [](PlacerConfig& c) { c.rail_select.min_length_frac = 1.5; }},
    };
    for (const Case& c : cases) {
        PlacerConfig cfg = fast_cfg(PlacerMode::Ours);
        c.apply(cfg);
        try {
            (void)GlobalPlacer(cfg).place(d);
            ADD_FAILURE() << c.field << ": accepted";
        } catch (const ConfigError& e) {
            EXPECT_EQ(e.field(), c.field);
        }
    }
}

TEST(ConfigValidationTest, ZeroMarginAndZeroRoundsAreValid) {
    PlacerConfig cfg = fast_cfg(PlacerMode::Ours);
    cfg.router.maze.window_margin = 0;
    cfg.router.rrr_rounds = 0;
    const PlaceResult res =
        GlobalPlacer(cfg).place(generate_circuit(small_cfg()));
    EXPECT_GT(res.hpwl_final, 0.0);
    cfg.router.rrr_rounds = 2;
    EXPECT_GT(GlobalPlacer(cfg).place(generate_circuit(small_cfg())).hpwl_final,
              0.0);
}

TEST(ConfigValidationTest, EvaluatePlacementRejectsOutOfDomainFields) {
    const Design d = generate_circuit(small_cfg());
    EvalConfig bins;
    bins.grid_bins = 0;
    EXPECT_THROW(evaluate_placement(d, bins), ConfigError);
    bins.grid_bins = 96;  // unchecked, silently rounded up to 128
    EXPECT_THROW(evaluate_placement(d, bins), ConfigError);
    EvalConfig margin;
    margin.router.maze.window_margin = -1;
    EXPECT_THROW(evaluate_placement(d, margin), ConfigError);
    EvalConfig rounds;
    rounds.router.rrr_rounds = -2;
    EXPECT_THROW(evaluate_placement(d, rounds), ConfigError);
}

}  // namespace
}  // namespace rdp
