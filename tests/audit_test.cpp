// Tests for the invariant-audit subsystem (src/audit, util/check.hpp):
// every registered auditor passes on a clean place -> route -> legalize
// flow, trips on a deliberately corrupted state with a message naming the
// stage, and never changes placement/routing results (observe, not mutate).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "audit/invariant_audit.hpp"
#include "benchgen/generator.hpp"
#include "density/electro_density.hpp"
#include "legal/tetris.hpp"
#include "place/global_placer.hpp"
#include "place/objective.hpp"
#include "place/routability_loop.hpp"
#include "router/global_router.hpp"
#include "util/check.hpp"

namespace rdp {
namespace {

class AuditTest : public ::testing::Test {
protected:
    void SetUp() override {
        set_audit_enabled(true);
        audit::reset_runs();
    }
    void TearDown() override { set_audit_enabled(true); }
};

Design small_circuit(uint64_t seed = 11) {
    GeneratorConfig cfg;
    cfg.name = "audit";
    cfg.seed = seed;
    cfg.num_cells = 300;
    cfg.num_ios = 16;
    cfg.num_macros = 2;
    cfg.utilization = 0.6;
    return generate_circuit(cfg);
}

PlacerConfig fast_cfg() {
    PlacerConfig cfg;
    cfg.mode = PlacerMode::Ours;
    cfg.grid_bins = 16;
    cfg.max_wl_iters = 60;
    cfg.stop_overflow = 0.12;
    cfg.max_route_iters = 2;
    cfg.inner_iters = 4;
    cfg.router.rrr_rounds = 1;
    cfg.dp.max_passes = 1;
    return cfg;
}

TEST_F(AuditTest, RegistryListsAllAuditors) {
    const auto& reg = audit::registered_auditors();
    ASSERT_EQ(reg.size(), 7u);
    const char* expected[] = {"finite-gradients",  "density-mass",
                              "router-accounting", "congestion-finite",
                              "spectral-finite",   "inflation-budget",
                              "legalized"};
    for (const char* name : expected) {
        bool found = false;
        for (const auto& info : reg) found |= std::string(info.name) == name;
        EXPECT_TRUE(found) << "auditor '" << name << "' not registered";
        EXPECT_EQ(audit::runs(name), 0);
    }
    EXPECT_EQ(audit::runs("no-such-auditor"), -1);
}

TEST_F(AuditTest, ContractMacrosThrowWithStageAndMessage) {
    const AuditStageScope scope("test-stage");
    EXPECT_EQ(std::string(audit_stage()), "test-stage");
    try {
        RDP_ASSERT(1 == 2, "boom " << 42);
        FAIL() << "RDP_ASSERT did not throw";
    } catch (const AuditFailure& e) {
        EXPECT_EQ(e.stage(), "test-stage");
        EXPECT_NE(std::string(e.what()).find("test-stage"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("boom 42"), std::string::npos);
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(RDP_CHECK_FINITE(nan, "nan input"), AuditFailure);
    EXPECT_NO_THROW(RDP_ASSERT(1 == 1, "fine"));
    // RDP_DCHECK is compiled out under NDEBUG; a passing contract must be
    // silent in every configuration.
    EXPECT_NO_THROW(RDP_DCHECK(1 == 1, "fine"));

    // Runtime toggle: disabled contracts cost one branch and never throw.
    set_audit_enabled(false);
    EXPECT_FALSE(audit_enabled());
    EXPECT_NO_THROW(RDP_ASSERT(1 == 2, "ignored"));
}

TEST_F(AuditTest, StageScopesNest) {
    EXPECT_EQ(std::string(audit_stage()), "?");
    {
        const AuditStageScope outer("outer");
        EXPECT_EQ(std::string(audit_stage()), "outer");
        {
            const AuditStageScope inner("inner");
            EXPECT_EQ(std::string(audit_stage()), "inner");
        }
        EXPECT_EQ(std::string(audit_stage()), "outer");
    }
    EXPECT_EQ(std::string(audit_stage()), "?");
}

// The acceptance test of the subsystem: a clean full flow exercises every
// registered auditor at least once without a single trip.
TEST_F(AuditTest, CleanFlowRunsEveryAuditorWithoutTripping) {
    const Design input = small_circuit();
    const GlobalPlacer placer(fast_cfg());
    PlaceResult res;
    ASSERT_NO_THROW(res = placer.place(input));
    EXPECT_TRUE(is_legal(res.placed));
    EXPECT_GT(audit::runs("finite-gradients"), 0);
    EXPECT_GT(audit::runs("density-mass"), 0);
    EXPECT_GT(audit::runs("router-accounting"), 0);
    EXPECT_GT(audit::runs("spectral-finite"), 0);
    EXPECT_GT(audit::runs("inflation-budget"), 0);
    EXPECT_GT(audit::runs("legalized"), 0);
}

TEST_F(AuditTest, AuditsObserveNeverMutate) {
    const Design input = small_circuit();
    const GlobalPlacer placer(fast_cfg());

    set_audit_enabled(false);
    const PlaceResult off = placer.place(input);
    set_audit_enabled(true);
    const PlaceResult on = placer.place(input);

    EXPECT_EQ(on.hpwl_final, off.hpwl_final);
    EXPECT_EQ(on.hpwl_gp, off.hpwl_gp);
    ASSERT_EQ(on.placed.num_cells(), off.placed.num_cells());
    for (int i = 0; i < on.placed.num_cells(); ++i) {
        EXPECT_EQ(on.placed.cells[static_cast<size_t>(i)].pos,
                  off.placed.cells[static_cast<size_t>(i)].pos)
            << "cell " << i << " moved when audits were enabled";
    }
}

TEST_F(AuditTest, NanCoordinateTripsObjectiveAudit) {
    Design d = small_circuit();
    const PlacerConfig cfg = fast_cfg();
    const BinGrid grid(d.region, 16, 16);
    PlacementObjective obj(grid, cfg.density, cfg.netmove,
                           6.0 * std::max(grid.bin_w(), grid.bin_h()));
    const std::vector<int> movable = d.movable_cells();
    std::vector<Vec2> pos(movable.size());
    for (size_t i = 0; i < movable.size(); ++i)
        pos[i] = d.cells[static_cast<size_t>(movable[i])].pos;
    std::vector<Vec2> grad;

    const AuditStageScope scope("wirelength-gp");
    ASSERT_NO_THROW(obj.evaluate(d, movable, pos, grad));

    pos[0].x = std::numeric_limits<double>::quiet_NaN();
    try {
        obj.evaluate(d, movable, pos, grad);
        FAIL() << "NaN coordinate did not trip any audit";
    } catch (const AuditFailure& e) {
        EXPECT_EQ(e.stage(), "wirelength-gp");
        EXPECT_NE(std::string(e.what()).find("wirelength-gp"),
                  std::string::npos);
    }
}

TEST_F(AuditTest, FiniteGradientAuditorTripsOnNan) {
    const AuditStageScope scope("routability-gp");
    std::vector<Vec2> grad(4);
    EXPECT_NO_THROW(audit::check_gradients_finite("net-moving", grad));
    grad[2].y = std::numeric_limits<double>::infinity();
    try {
        audit::check_gradients_finite("net-moving", grad);
        FAIL() << "non-finite gradient did not trip";
    } catch (const AuditFailure& e) {
        EXPECT_EQ(e.invariant(), "finite-gradients");
        EXPECT_EQ(e.stage(), "routability-gp");
        EXPECT_NE(std::string(e.what()).find("net-moving"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("cell 2"), std::string::npos);
    }
}

TEST_F(AuditTest, DensityMassAuditorTripsOnLostCharge) {
    const Design d = small_circuit();
    const BinGrid grid(d.region, 16, 16);
    const ElectroDensity density(grid);
    EXPECT_NO_THROW(density.evaluate(d));
    EXPECT_GT(audit::runs("density-mass"), 0);

    // Direct corruption: a grid missing charge vs the expected total.
    GridF g = grid.make_grid();
    g.at(3, 3) = 100.0;
    EXPECT_NO_THROW(audit::check_density_mass(g, 100.0));
    const AuditStageScope scope("wirelength-gp");
    try {
        audit::check_density_mass(g, 150.0);
        FAIL() << "lost charge did not trip";
    } catch (const AuditFailure& e) {
        EXPECT_EQ(e.invariant(), "density-mass");
        EXPECT_EQ(e.stage(), "wirelength-gp");
    }
}

TEST_F(AuditTest, SpectralFiniteTripsOnNanPotential) {
    const Design d = small_circuit();
    const BinGrid grid(d.region, 16, 16);
    const ElectroDensity density(grid);
    EXPECT_NO_THROW(density.evaluate(d));
    EXPECT_GT(audit::runs("spectral-finite"), 0);

    GridF psi(8, 8), ex(8, 8), ey(8, 8);
    EXPECT_NO_THROW(audit::check_spectral_finite("density", psi, ex, ey));
    psi.at(5, 2) = std::numeric_limits<double>::quiet_NaN();
    const AuditStageScope scope("wirelength-gp");
    try {
        audit::check_spectral_finite("density", psi, ex, ey);
        FAIL() << "NaN potential did not trip";
    } catch (const AuditFailure& e) {
        EXPECT_EQ(e.invariant(), "spectral-finite");
        EXPECT_EQ(e.stage(), "wirelength-gp");
        EXPECT_NE(std::string(e.what()).find("potential"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("(5, 2)"), std::string::npos);
    }
    psi.at(5, 2) = 0.0;

    // Field corruption is reported with the offending map's name.
    ey.at(0, 7) = -std::numeric_limits<double>::infinity();
    try {
        audit::check_spectral_finite("congestion", psi, ex, ey);
        FAIL() << "infinite field did not trip";
    } catch (const AuditFailure& e) {
        EXPECT_NE(std::string(e.what()).find("field-y"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("congestion"), std::string::npos);
    }
}

TEST_F(AuditTest, RouterAccountingTripsOnOverCommittedEdge) {
    const AuditStageScope scope("global-route");
    std::vector<RoutePath> paths(1);
    paths[0].segs = {hseg(0, 2, 3), vseg(3, 2, 5)};

    GridF dem_h(8, 8), dem_v(8, 8), bends(8, 8), hist_h(8, 8), hist_v(8, 8);
    for (int x = 0; x <= 3; ++x) dem_h.at(x, 2) += 1.0;
    for (int y = 2; y <= 5; ++y) dem_v.at(3, y) += 1.0;
    bends.at(3, 2) += 1.0;
    EXPECT_NO_THROW(audit::check_router_accounting(dem_h, dem_v, bends, paths,
                                                   hist_h, hist_v));

    // Over-committed edge: demand exceeds the committed segments.
    dem_h.at(1, 2) += 1.0;
    try {
        audit::check_router_accounting(dem_h, dem_v, bends, paths, hist_h,
                                       hist_v);
        FAIL() << "over-committed edge did not trip";
    } catch (const AuditFailure& e) {
        EXPECT_EQ(e.invariant(), "router-accounting");
        EXPECT_EQ(e.stage(), "global-route");
        EXPECT_NE(std::string(e.what()).find("(1, 2)"), std::string::npos);
    }
    dem_h.at(1, 2) -= 1.0;

    // Negative history cost.
    hist_v.at(4, 4) = -0.5;
    EXPECT_THROW(audit::check_router_accounting(dem_h, dem_v, bends, paths,
                                                hist_h, hist_v),
                 AuditFailure);
}

TEST_F(AuditTest, RouterAccountingPassesOnRealRoute) {
    const Design d = small_circuit();
    const BinGrid grid(d.region, 16, 16);
    RouterConfig rc;
    rc.rrr_rounds = 2;
    const GlobalRouter router(grid, rc);
    EXPECT_NO_THROW(router.route(d));
    // Initial pass + final-restore audits at minimum.
    EXPECT_GE(audit::runs("router-accounting"), 2);
}

TEST_F(AuditTest, InflationBudgetTripsOnOverdraw) {
    Design d;
    d.region = {0, 0, 100, 100};
    d.add_cell("a", 10, 10, CellKind::Movable, {20, 20});
    d.add_cell("b", 10, 10, CellKind::Movable, {60, 60});
    d.add_cell("f0", 5, 10, CellKind::Movable, {30, 70});
    d.add_cell("f1", 5, 10, CellKind::Movable, {70, 30});
    const int first_filler = 2;
    const double frac = 1.2;

    // budget_inflation scales an overdrawn request into the budget; the
    // audited result balances.
    std::vector<double> ratios = {3.0, 3.0, 1.0, 1.0};
    budget_inflation(d, first_filler, ratios, frac);
    EXPECT_NO_THROW(audit::check_inflation_budget(d, first_filler, ratios,
                                                  frac, 0.0));

    // Raw (unbudgeted) ratios overdraw the filler whitespace: real-cell
    // growth 2 * 100 * 2.0 = 400 against a budget of 1.2 * 100 = 120.
    std::vector<double> raw = {3.0, 3.0, 1.0, 1.0};
    const AuditStageScope scope("routability-gp");
    try {
        audit::check_inflation_budget(d, first_filler, raw, frac, 0.0);
        FAIL() << "overdrawn inflation did not trip";
    } catch (const AuditFailure& e) {
        EXPECT_EQ(e.invariant(), "inflation-budget");
        EXPECT_EQ(e.stage(), "routability-gp");
        EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
    }

    // A non-finite ratio trips regardless of the budget.
    std::vector<double> bad = ratios;
    bad[0] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(
        audit::check_inflation_budget(d, first_filler, bad, frac, 0.0),
        AuditFailure);
}

TEST_F(AuditTest, LegalizedAuditorTripsOnOverlapAndMisalignment) {
    Design d = small_circuit();
    tetris_legalize(d);
    EXPECT_NO_THROW(audit::check_legalized(d));

    // Overlapping legalized cells.
    Design overlapped = d;
    const std::vector<int> movable = overlapped.movable_cells();
    ASSERT_GE(movable.size(), 2u);
    overlapped.cells[static_cast<size_t>(movable[1])].pos =
        overlapped.cells[static_cast<size_t>(movable[0])].pos;
    const AuditStageScope scope("legalize");
    try {
        audit::check_legalized(overlapped);
        FAIL() << "overlapping cells did not trip";
    } catch (const AuditFailure& e) {
        EXPECT_EQ(e.invariant(), "legalized");
        EXPECT_EQ(e.stage(), "legalize");
        EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos);
    }

    // A cell off the row grid.
    Design misaligned = d;
    misaligned.cells[static_cast<size_t>(movable[0])].pos.y += 0.3;
    try {
        audit::check_legalized(misaligned);
        FAIL() << "row misalignment did not trip";
    } catch (const AuditFailure& e) {
        EXPECT_NE(std::string(e.what()).find("row"), std::string::npos);
    }
}

}  // namespace
}  // namespace rdp
