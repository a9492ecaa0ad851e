// Tests for the fault-tolerant pipeline runner (DESIGN.md §11): the fault
// taxonomy and spec parser, the strict env parsing it shares with the other
// knobs, the deterministic injection harness, and — the core contract —
// that every injected fault class is recovered (or gracefully degraded)
// while the pipeline still finishes with a legal placement, and that a
// clean run is bitwise identical with recovery enabled or disabled.
//
// Also here: the hardened netlist reader (typed ParseError with line
// numbers on ~a dozen corrupted fixtures) and the degenerate-design suite
// (empty design, single cell, one-pin net, zero-area cell, die-covering
// macro) that must finish without throwing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "benchgen/generator.hpp"
#include "db/netlist_io.hpp"
#include "legal/tetris.hpp"
#include "place/global_placer.hpp"
#include "place/objective.hpp"
#include "place/routability_loop.hpp"
#include "recover/fault_injection.hpp"
#include "recover/stage_guard.hpp"
#include "util/check.hpp"
#include "util/env.hpp"

namespace rdp {
namespace {

using recover::FaultKind;
using recover::FaultSpec;

// ---------------------------------------------------------------------------
// Fault taxonomy and spec parsing
// ---------------------------------------------------------------------------

TEST(FaultKindTest, NamesRoundTrip) {
    for (const FaultKind k :
         {FaultKind::GradientNaN, FaultKind::HpwlExplosion,
          FaultKind::OverflowOscillation, FaultKind::RouterNoProgress,
          FaultKind::StageTimeout, FaultKind::CorruptedDemand,
          FaultKind::CorruptedBudget, FaultKind::AuditViolation}) {
        FaultKind back = FaultKind::AuditViolation;
        ASSERT_TRUE(
            recover::parse_fault_kind(recover::fault_kind_name(k), back));
        EXPECT_EQ(back, k) << recover::fault_kind_name(k);
    }
    FaultKind out;
    EXPECT_FALSE(recover::parse_fault_kind("not-a-fault", out));
    EXPECT_FALSE(recover::parse_fault_kind("", out));
}

TEST(FaultSpecTest, ParsesFullSpec) {
    const auto spec =
        recover::parse_fault_spec("routability-gp:corrupted-demand:3:5");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->stage, "routability-gp");
    EXPECT_EQ(spec->kind, FaultKind::CorruptedDemand);
    EXPECT_EQ(spec->iter, 3);
    EXPECT_EQ(spec->count, 5);
}

TEST(FaultSpecTest, CountDefaultsToOne) {
    const auto spec =
        recover::parse_fault_spec("wirelength-gp:gradient-nan:12");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->kind, FaultKind::GradientNaN);
    EXPECT_EQ(spec->iter, 12);
    EXPECT_EQ(spec->count, 1);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
    const char* bad[] = {
        "",                                  // empty stage
        "wirelength-gp",                     // missing kind
        "wirelength-gp:gradient-nan",        // missing iteration
        "wirelength-gp:no-such-kind:1",      // unknown kind
        "wirelength-gp:gradient-nan:-1",     // negative iteration
        "wirelength-gp:gradient-nan:x",      // non-numeric iteration
        "wirelength-gp:gradient-nan:1:0",    // count below 1
        "wirelength-gp:gradient-nan:1:2:3",  // trailing field
    };
    for (const char* text : bad) {
        std::string err;
        EXPECT_FALSE(recover::parse_fault_spec(text, &err).has_value())
            << text;
        // Every error names the accepted form.
        EXPECT_NE(err.find("expected"), std::string::npos) << text;
    }
}

TEST(RecoverableErrorTest, MessageNamesStageAndKind) {
    const recover::RecoverableError e(FaultKind::HpwlExplosion,
                                      "routability-gp", "boom");
    EXPECT_EQ(e.kind(), FaultKind::HpwlExplosion);
    EXPECT_EQ(e.stage(), "routability-gp");
    const std::string what = e.what();
    EXPECT_NE(what.find("routability-gp"), std::string::npos);
    EXPECT_NE(what.find("hpwl-explosion"), std::string::npos);
    EXPECT_NE(what.find("boom"), std::string::npos);
}

TEST(ClassifyAuditFailureTest, MapsInvariantsToFaultKinds) {
    const auto classify = [](const char* invariant) {
        return recover::classify_audit_failure(
            AuditFailure("stage", invariant, "msg"));
    };
    EXPECT_EQ(classify("finite-gradients"), FaultKind::GradientNaN);
    EXPECT_EQ(classify("router-accounting"), FaultKind::CorruptedDemand);
    EXPECT_EQ(classify("congestion-finite"), FaultKind::CorruptedDemand);
    EXPECT_EQ(classify("inflation-budget"), FaultKind::CorruptedBudget);
    EXPECT_EQ(classify("legal-overlap"), FaultKind::AuditViolation);
}

// ---------------------------------------------------------------------------
// Shared strict env parsing (util/env)
// ---------------------------------------------------------------------------

TEST(EnvParseTest, ParseIntIsStrict) {
    EXPECT_EQ(env::parse_int("42").value_or(-1), 42);
    EXPECT_EQ(env::parse_int(" 7 ").value_or(-1), 7);
    EXPECT_EQ(env::parse_int("+3").value_or(-1), 3);
    EXPECT_EQ(env::parse_int("-3").value_or(0), -3);
    EXPECT_FALSE(env::parse_int("").has_value());
    EXPECT_FALSE(env::parse_int("  ").has_value());
    EXPECT_FALSE(env::parse_int("8abc").has_value());
    EXPECT_FALSE(env::parse_int("1.5").has_value());
    EXPECT_FALSE(env::parse_int("0x10").has_value());
    EXPECT_FALSE(env::parse_int("+").has_value());
    EXPECT_FALSE(env::parse_int("99999999999999999999").has_value());
}

TEST(EnvParseTest, ParseDoubleIsStrictAndFinite) {
    EXPECT_DOUBLE_EQ(env::parse_double("1.5").value_or(0.0), 1.5);
    EXPECT_DOUBLE_EQ(env::parse_double("1e3").value_or(0.0), 1000.0);
    EXPECT_DOUBLE_EQ(env::parse_double(" -2.25 ").value_or(0.0), -2.25);
    EXPECT_FALSE(env::parse_double("").has_value());
    EXPECT_FALSE(env::parse_double("1.5x").has_value());
    EXPECT_FALSE(env::parse_double("nan").has_value());
    EXPECT_FALSE(env::parse_double("inf").has_value());
    EXPECT_FALSE(env::parse_double("1e999").has_value());
}

TEST(EnvParseTest, ParseFlagAcceptsTheUsualSpellings) {
    for (const char* t : {"1", "on", "true", "yes", "TRUE", "Yes", " on "})
        EXPECT_EQ(env::parse_flag(t).value_or(false), true) << t;
    for (const char* t : {"0", "off", "false", "no", "OFF"})
        EXPECT_EQ(env::parse_flag(t).value_or(true), false) << t;
    EXPECT_FALSE(env::parse_flag("2").has_value());
    EXPECT_FALSE(env::parse_flag("maybe").has_value());
    EXPECT_FALSE(env::parse_flag("").has_value());
}

TEST(EnvParseTest, LookupsFallBackOnGarbageAndRange) {
    ::setenv("RDP_TEST_ENV_INT", "8", 1);
    EXPECT_EQ(env::int_or("RDP_TEST_ENV_INT", 1, 1, 64), 8);
    ::setenv("RDP_TEST_ENV_INT", "8abc", 1);
    EXPECT_EQ(env::int_or("RDP_TEST_ENV_INT", 1, 1, 64), 1);
    ::setenv("RDP_TEST_ENV_INT", "1024", 1);  // above max
    EXPECT_EQ(env::int_or("RDP_TEST_ENV_INT", 1, 1, 64), 1);
    ::unsetenv("RDP_TEST_ENV_INT");
    EXPECT_EQ(env::int_or("RDP_TEST_ENV_INT", 5, 1, 64), 5);

    ::setenv("RDP_TEST_ENV_DBL", "2.5", 1);
    EXPECT_DOUBLE_EQ(env::double_or("RDP_TEST_ENV_DBL", 0.0, 0.0, 10.0), 2.5);
    ::setenv("RDP_TEST_ENV_DBL", "-1", 1);  // below min
    EXPECT_DOUBLE_EQ(env::double_or("RDP_TEST_ENV_DBL", 0.5, 0.0, 10.0), 0.5);
    ::unsetenv("RDP_TEST_ENV_DBL");

    ::setenv("RDP_TEST_ENV_FLAG", "off", 1);
    EXPECT_FALSE(env::flag_or("RDP_TEST_ENV_FLAG", true));
    ::setenv("RDP_TEST_ENV_FLAG", "garbage", 1);
    EXPECT_TRUE(env::flag_or("RDP_TEST_ENV_FLAG", true));
    ::unsetenv("RDP_TEST_ENV_FLAG");
}

// ---------------------------------------------------------------------------
// Fault-injection harness scheduling
// ---------------------------------------------------------------------------

class FaultHarnessTest : public ::testing::Test {
protected:
    void SetUp() override { recover::fault::clear(); }
    void TearDown() override { recover::fault::clear(); }
};

TEST_F(FaultHarnessTest, FiresOnlyOnMatchingSite) {
    recover::fault::arm({"routability-gp", FaultKind::CorruptedDemand, 2, 1});
    EXPECT_TRUE(recover::fault::armed());
    EXPECT_FALSE(recover::fault::fire("routability-gp",
                                      FaultKind::CorruptedDemand, 1));
    EXPECT_FALSE(recover::fault::fire("wirelength-gp",
                                      FaultKind::CorruptedDemand, 2));
    EXPECT_FALSE(recover::fault::fire("routability-gp",
                                      FaultKind::GradientNaN, 2));
    EXPECT_TRUE(recover::fault::fire("routability-gp",
                                     FaultKind::CorruptedDemand, 2));
    EXPECT_EQ(recover::fault::shots(), 1);
}

TEST_F(FaultHarnessTest, EachIterationFiresAtMostOnce) {
    recover::fault::arm({"routability-gp", FaultKind::GradientNaN, 3, 2});
    EXPECT_TRUE(
        recover::fault::fire("routability-gp", FaultKind::GradientNaN, 3));
    // The rolled-back re-execution of iteration 3 stays clean.
    EXPECT_FALSE(
        recover::fault::fire("routability-gp", FaultKind::GradientNaN, 3));
    EXPECT_TRUE(
        recover::fault::fire("routability-gp", FaultKind::GradientNaN, 4));
    // Past the [iter, iter + count) window.
    EXPECT_FALSE(
        recover::fault::fire("routability-gp", FaultKind::GradientNaN, 5));
    EXPECT_EQ(recover::fault::shots(), 2);
}

TEST_F(FaultHarnessTest, ClearDisarms) {
    recover::fault::arm({"legalize", FaultKind::StageTimeout, 0, 1});
    recover::fault::clear();
    EXPECT_FALSE(recover::fault::armed());
    EXPECT_FALSE(recover::fault::fire("legalize", FaultKind::StageTimeout, 0));
    EXPECT_EQ(recover::fault::shots(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end fault recovery through the placer pipeline
// ---------------------------------------------------------------------------

GeneratorConfig recover_design_cfg(uint64_t seed = 11) {
    GeneratorConfig cfg;
    cfg.name = "recover-test";
    cfg.seed = seed;
    cfg.num_cells = 300;
    cfg.num_macros = 1;
    cfg.macro_area_frac = 0.08;
    cfg.utilization = 0.7;
    cfg.num_ios = 12;
    return cfg;
}

PlacerConfig recover_placer_cfg() {
    PlacerConfig cfg;
    cfg.mode = PlacerMode::Ours;
    cfg.grid_bins = 32;
    cfg.max_wl_iters = 100;
    cfg.stop_overflow = 0.12;
    cfg.max_route_iters = 3;
    cfg.inner_iters = 5;
    cfg.router.rrr_rounds = 1;
    cfg.dp.max_passes = 1;
    return cfg;
}

class FaultRecoveryTest : public ::testing::Test {
protected:
    void SetUp() override { recover::fault::clear(); }
    void TearDown() override { recover::fault::clear(); }

    /// Arm `spec`, place the shared small design, and require the pipeline
    /// to finish with a legal placement while reporting the fault.
    PlaceResult place_with_fault(const FaultSpec& spec,
                                 PlacerConfig cfg = recover_placer_cfg()) {
        const Design input = generate_circuit(recover_design_cfg());
        recover::fault::arm(spec);
        const PlaceResult res = GlobalPlacer(cfg).place(input);
        EXPECT_GE(recover::fault::shots(), 1)
            << "the armed fault never reached its injection site";
        EXPECT_GE(res.recovery.count(spec.kind), 1)
            << "no recovery event of kind "
            << recover::fault_kind_name(spec.kind);
        EXPECT_EQ(res.placed.num_cells(), input.num_cells());
        EXPECT_TRUE(is_legal(res.placed));
        EXPECT_EQ(res.legal_stats.cells_failed, 0);
        EXPECT_GT(res.hpwl_final, 0.0);
        return res;
    }
};

TEST_F(FaultRecoveryTest, WirelengthStageRecoversFromGradientNaN) {
    const PlaceResult res =
        place_with_fault({"wirelength-gp", FaultKind::GradientNaN, 30, 1});
    EXPECT_GE(res.recovery.rollbacks, 1);
    // The stage kept running after the rollback.
    EXPECT_GT(res.wl_iters, 30);
}

TEST_F(FaultRecoveryTest, WirelengthStageRecoversFromHpwlExplosion) {
    const PlaceResult res =
        place_with_fault({"wirelength-gp", FaultKind::HpwlExplosion, 30, 1});
    EXPECT_GE(res.recovery.rollbacks, 1);
}

TEST_F(FaultRecoveryTest, RoutabilityStageRecoversFromGradientNaN) {
    const PlaceResult res =
        place_with_fault({"routability-gp", FaultKind::GradientNaN, 1, 1});
    EXPECT_GE(res.recovery.rollbacks, 1);
    EXPECT_GT(res.route_outer_iters, 0);
}

TEST_F(FaultRecoveryTest, RoutabilityStageRecoversFromHpwlExplosion) {
    const PlaceResult res =
        place_with_fault({"routability-gp", FaultKind::HpwlExplosion, 1, 1});
    EXPECT_GE(res.recovery.rollbacks, 1);
}

TEST_F(FaultRecoveryTest, RoutabilityStageReroutesCorruptedDemand) {
    const PlaceResult res =
        place_with_fault({"routability-gp", FaultKind::CorruptedDemand, 1, 1});
    bool rerouted = false;
    for (const auto& e : res.recovery.events)
        if (e.action == "reroute" || e.action == "fallback-demand")
            rerouted = true;
    EXPECT_TRUE(rerouted);
}

TEST_F(FaultRecoveryTest, FallbackDemandUsesTheLastGoodMap) {
    // Regression: the rollback point was re-captured on every retry of the
    // same outer iteration, so the fallback-demand rung fell back to the
    // corrupted map of the attempt that had just failed and the stage
    // degraded. The last-good map is the one of the previous iteration.
    PlacerConfig cfg = recover_placer_cfg();
    cfg.max_route_iters = 5;
    const PlaceResult res = place_with_fault(
        {"routability-gp", FaultKind::CorruptedDemand, 1, 2}, cfg);
    bool fell_back = false;
    for (const auto& e : res.recovery.events)
        if (e.action == "fallback-demand") fell_back = true;
    EXPECT_TRUE(fell_back);
    EXPECT_EQ(res.recovery.degraded_stages, 0);
    EXPECT_GT(res.route_outer_iters, 2);
}

TEST_F(FaultRecoveryTest, RoutabilityStageRelaxesLivelockedRouter) {
    const PlaceResult res = place_with_fault(
        {"routability-gp", FaultKind::RouterNoProgress, 1, 1});
    bool relaxed = false;
    for (const auto& e : res.recovery.events)
        if (e.action == "relax-router") relaxed = true;
    EXPECT_TRUE(relaxed);
}

TEST_F(FaultRecoveryTest, RoutabilityStageResetsCorruptedBudget) {
    const PlaceResult res =
        place_with_fault({"routability-gp", FaultKind::CorruptedBudget, 1, 1});
    bool reset = false;
    for (const auto& e : res.recovery.events)
        if (e.action == "reset-inflation") reset = true;
    EXPECT_TRUE(reset);
}

TEST_F(FaultRecoveryTest, RoutabilityStageDetectsOverflowOscillation) {
    PlacerConfig cfg = recover_placer_cfg();
    cfg.max_route_iters = 8;
    cfg.inner_iters = 3;
    cfg.stop_patience = 99;  // let the oscillation window build up
    const PlaceResult res = place_with_fault(
        {"routability-gp", FaultKind::OverflowOscillation, 0, 16}, cfg);
    EXPECT_GE(res.recovery.rollbacks, 1);
}

TEST_F(FaultRecoveryTest, InjectedStageTimeoutDegradesGracefully) {
    const PlaceResult res =
        place_with_fault({"routability-gp", FaultKind::StageTimeout, 1, 1});
    EXPECT_GE(res.recovery.degraded_stages, 1);
    // The stage stopped at the injected budget exhaustion.
    EXPECT_LE(res.route_outer_iters, 1);
}

TEST_F(FaultRecoveryTest, ExhaustedRetriesDegradeTheStage) {
    // A persistent fault: fires on (re-executed) iterations until the
    // retry budget is gone; the stage must degrade, not loop forever.
    const PlaceResult res =
        place_with_fault({"wirelength-gp", FaultKind::GradientNaN, 10, 200});
    EXPECT_GE(res.recovery.degraded_stages, 1);
    bool degraded = false;
    for (const auto& e : res.recovery.events)
        if (e.action == "degrade" && e.stage == std::string("wirelength-gp"))
            degraded = true;
    EXPECT_TRUE(degraded);
}

TEST_F(FaultRecoveryTest, WallClockBudgetStopsTheRun) {
    PlacerConfig cfg = recover_placer_cfg();
    cfg.recover.stage_budget_ms = 1e-3;  // expires at the first check
    const Design input = generate_circuit(recover_design_cfg());
    const PlaceResult res = GlobalPlacer(cfg).place(input);
    EXPECT_GE(res.recovery.count(FaultKind::StageTimeout), 1);
    EXPECT_GE(res.recovery.degraded_stages, 1);
    EXPECT_EQ(res.placed.num_cells(), input.num_cells());
    EXPECT_TRUE(is_legal(res.placed));
}

TEST_F(FaultRecoveryTest, CleanRunIsBitwiseIdenticalWithRecoveryOff) {
    const Design input = generate_circuit(recover_design_cfg());
    PlacerConfig on = recover_placer_cfg();
    on.recover.enabled = true;
    PlacerConfig off = recover_placer_cfg();
    off.recover.enabled = false;
    const PlaceResult a = GlobalPlacer(on).place(input);
    const PlaceResult b = GlobalPlacer(off).place(input);
    // No detector tripped; the recovery layer was invisible.
    EXPECT_TRUE(a.recovery.events.empty());
    EXPECT_TRUE(b.recovery.events.empty());
    EXPECT_DOUBLE_EQ(a.hpwl_final, b.hpwl_final);
    ASSERT_EQ(a.placed.num_cells(), b.placed.num_cells());
    for (int i = 0; i < a.placed.num_cells(); ++i)
        EXPECT_EQ(a.placed.cells[static_cast<size_t>(i)].pos,
                  b.placed.cells[static_cast<size_t>(i)].pos)
            << "cell " << i;
}

// ---------------------------------------------------------------------------
// Best-snapshot restore pairs positions with inflation bookkeeping
// ---------------------------------------------------------------------------

TEST_F(FaultRecoveryTest, BestSnapshotRestoresPairedInflationBookkeeping) {
    // A prohibitive keep-best margin pins the kept-best to the stage entry
    // (iteration 0 at the latest): the restored ratios/extra charge must be
    // the entry bookkeeping (all ones), not the last iteration's inflated
    // state — the stage-end audit cross-checks the restored pairing.
    PlacerConfig cfg = recover_placer_cfg();
    cfg.keep_best_margin = 0.99;
    const Design input = generate_circuit(recover_design_cfg());
    PlaceResult pre = GlobalPlacer(cfg).place(input);

    Design work = pre.placed;
    const std::vector<int> movable = work.movable_cells();
    std::vector<Vec2> entry_pos(movable.size());
    for (size_t i = 0; i < movable.size(); ++i)
        entry_pos[i] = work.cells[static_cast<size_t>(movable[i])].pos;

    const BinGrid grid(work.region, 32, 32);
    PlacementObjective obj(grid, cfg.density, cfg.netmove,
                           4.0 * grid.bin_w());
    obj.set_lambda1(1.0);
    const RoutabilityStats rs =
        run_routability_stage(work, movable, obj, cfg, {}, work.num_cells());

    EXPECT_LE(rs.best_iter, 0);
    ASSERT_EQ(rs.final_ratios.size(),
              static_cast<size_t>(work.num_cells()));
    for (const double r : rs.final_ratios) EXPECT_DOUBLE_EQ(r, 1.0);
    // Positions restored together with the bookkeeping they were scored
    // with: the entry placement.
    for (size_t i = 0; i < movable.size(); ++i)
        EXPECT_EQ(work.cells[static_cast<size_t>(movable[i])].pos,
                  entry_pos[i])
            << "movable slot " << i;
}

// ---------------------------------------------------------------------------
// StageGuard degraded finish: with the retry budget exhausted, the stage
// must land on its best snapshot (never mid-divergence positions) and the
// summary must report the degradation.
// ---------------------------------------------------------------------------

class DegradedFinishTest : public ::testing::Test {
protected:
    void SetUp() override { recover::fault::clear(); }
    void TearDown() override { recover::fault::clear(); }

    struct Run {
        RoutabilityStats stats;
        std::vector<Vec2> entry_pos;
        std::vector<Vec2> final_pos;
    };

    /// Drive run_routability_stage directly with max_retries = 0 so the
    /// first detected divergence degrades the stage immediately.
    Run run_degraded(const FaultSpec& spec,
                     PlacerConfig cfg = recover_placer_cfg()) {
        cfg.recover.max_retries = 0;
        // One shared pre-placed design: the degraded-finish contract is
        // about the stage's exit state, not the placement quality.
        static const Design placed = [] {
            const Design input = generate_circuit(recover_design_cfg());
            return GlobalPlacer(recover_placer_cfg()).place(input).placed;
        }();
        Design work = placed;
        const std::vector<int> movable = work.movable_cells();
        Run run;
        run.entry_pos.resize(movable.size());
        for (size_t i = 0; i < movable.size(); ++i)
            run.entry_pos[i] = work.cells[static_cast<size_t>(movable[i])].pos;
        const BinGrid grid(work.region, 32, 32);
        PlacementObjective obj(grid, cfg.density, cfg.netmove,
                               4.0 * grid.bin_w());
        obj.set_lambda1(1.0);
        recover::fault::arm(spec);
        run.stats = run_routability_stage(work, movable, obj, cfg, {},
                                          work.num_cells());
        EXPECT_GE(recover::fault::shots(), 1)
            << "the armed fault never reached its injection site";
        run.final_pos.resize(movable.size());
        for (size_t i = 0; i < movable.size(); ++i)
            run.final_pos[i] = work.cells[static_cast<size_t>(movable[i])].pos;
        return run;
    }

    /// The summary must carry exactly one degradation of `kind`.
    static void expect_degraded(const RoutabilityStats& stats,
                                FaultKind kind) {
        EXPECT_EQ(stats.recovery.degraded_stages, 1);
        bool degraded = false;
        for (const auto& e : stats.recovery.events)
            if (e.action == "degrade" && e.kind == kind) degraded = true;
        EXPECT_TRUE(degraded) << "no degrade event of kind "
                              << recover::fault_kind_name(kind);
    }

    /// A fault injected at outer iteration 0 diverges before any snapshot
    /// beat the entry state, so landing on "best" means landing on entry:
    /// positions untouched, inflation bookkeeping still all-ones.
    static void expect_entry_state(const Run& run) {
        EXPECT_LE(run.stats.best_iter, 0);
        ASSERT_EQ(run.final_pos.size(), run.entry_pos.size());
        for (size_t i = 0; i < run.final_pos.size(); ++i)
            EXPECT_EQ(run.final_pos[i], run.entry_pos[i])
                << "movable slot " << i;
        for (const double r : run.stats.final_ratios)
            EXPECT_DOUBLE_EQ(r, 1.0);
    }
};

TEST_F(DegradedFinishTest, PersistentGradientNaNLandsOnEntrySnapshot) {
    const Run run =
        run_degraded({"routability-gp", FaultKind::GradientNaN, 0, 200});
    expect_degraded(run.stats, FaultKind::GradientNaN);
    expect_entry_state(run);
}

TEST_F(DegradedFinishTest, PersistentHpwlExplosionLandsOnEntrySnapshot) {
    const Run run =
        run_degraded({"routability-gp", FaultKind::HpwlExplosion, 0, 200});
    expect_degraded(run.stats, FaultKind::HpwlExplosion);
    expect_entry_state(run);
}

TEST_F(DegradedFinishTest, RouterLivelockLandsOnEntrySnapshot) {
    const Run run =
        run_degraded({"routability-gp", FaultKind::RouterNoProgress, 0, 200});
    expect_degraded(run.stats, FaultKind::RouterNoProgress);
    expect_entry_state(run);
}

TEST_F(DegradedFinishTest, OverflowOscillationStopsEarlyOnBestSnapshot) {
    PlacerConfig cfg = recover_placer_cfg();
    cfg.max_route_iters = 12;
    cfg.inner_iters = 3;
    cfg.stop_patience = 99;  // let the oscillation window build up
    const Run run = run_degraded(
        {"routability-gp", FaultKind::OverflowOscillation, 0, 32}, cfg);
    expect_degraded(run.stats, FaultKind::OverflowOscillation);
    // Detection needs a few window samples but must fire well before the
    // iteration cap — the stage stopped on it, not on exhaustion.
    EXPECT_LT(run.stats.outer_iters, cfg.max_route_iters);
    // The restored pairing is a real snapshot: finite bookkeeping only.
    ASSERT_FALSE(run.stats.final_ratios.empty());
    for (const double r : run.stats.final_ratios) {
        EXPECT_TRUE(std::isfinite(r));
        EXPECT_GE(r, 1.0);
    }
}

// ---------------------------------------------------------------------------
// Degenerate designs: the pipeline must finish without throwing
// ---------------------------------------------------------------------------

PlacerConfig degenerate_cfg() {
    PlacerConfig cfg;
    cfg.mode = PlacerMode::Ours;
    cfg.grid_bins = 16;
    cfg.max_wl_iters = 40;
    cfg.max_route_iters = 2;
    cfg.inner_iters = 3;
    cfg.router.rrr_rounds = 1;
    cfg.dp.max_passes = 1;
    return cfg;
}

Design bare_design(const char* name) {
    Design d;
    d.name = name;
    d.region = {0.0, 0.0, 100.0, 100.0};
    d.row_height = 8.0;
    d.site_width = 1.0;
    return d;
}

TEST(DegenerateDesignTest, EmptyDesign) {
    const Design d = bare_design("empty");
    PlaceResult res;
    ASSERT_NO_THROW(res = GlobalPlacer(degenerate_cfg()).place(d));
    EXPECT_EQ(res.placed.num_cells(), 0);
}

TEST(DegenerateDesignTest, SingleCellNoNets) {
    Design d = bare_design("single");
    d.add_cell("c0", 4.0, 8.0, CellKind::Movable, {50.0, 50.0});
    PlaceResult res;
    ASSERT_NO_THROW(res = GlobalPlacer(degenerate_cfg()).place(d));
    EXPECT_EQ(res.placed.num_cells(), 1);
}

TEST(DegenerateDesignTest, OnePinNet) {
    Design d = bare_design("one-pin");
    d.add_cell("c0", 4.0, 8.0, CellKind::Movable, {30.0, 30.0});
    d.add_cell("c1", 4.0, 8.0, CellKind::Movable, {70.0, 70.0});
    const int p0 = d.add_pin(0, {0.0, 0.0});
    const int net = d.add_net("n0", 1.0);
    d.connect(net, p0);  // a single-pin net: zero wirelength, no gradient
    PlaceResult res;
    ASSERT_NO_THROW(res = GlobalPlacer(degenerate_cfg()).place(d));
    EXPECT_EQ(res.placed.num_cells(), 2);
}

TEST(DegenerateDesignTest, ZeroAreaCell) {
    Design d = bare_design("zero-area");
    d.add_cell("c0", 4.0, 8.0, CellKind::Movable, {40.0, 40.0});
    d.add_cell("zero", 0.0, 0.0, CellKind::Movable, {50.0, 50.0});
    d.add_cell("c2", 4.0, 8.0, CellKind::Movable, {60.0, 60.0});
    const int p0 = d.add_pin(0, {0.0, 0.0});
    const int p1 = d.add_pin(1, {0.0, 0.0});
    const int p2 = d.add_pin(2, {0.0, 0.0});
    const int net = d.add_net("n0", 1.0);
    d.connect(net, p0);
    d.connect(net, p1);
    d.connect(net, p2);
    PlaceResult res;
    ASSERT_NO_THROW(res = GlobalPlacer(degenerate_cfg()).place(d));
    EXPECT_EQ(res.placed.num_cells(), 3);
}

TEST(DegenerateDesignTest, MacroCoversMostOfTheDie) {
    Design d = bare_design("big-macro");
    // A fixed macro over >90% of the die; the movables fight for the rim.
    d.add_cell("macro", 96.0, 96.0, CellKind::Macro, {50.0, 50.0});
    for (int i = 0; i < 4; ++i)
        d.add_cell("c" + std::to_string(i), 2.0, 8.0, CellKind::Movable,
                   {2.0, 10.0 + 20.0 * i});
    const int pa = d.add_pin(1, {0.0, 0.0});
    const int pb = d.add_pin(2, {0.0, 0.0});
    const int net = d.add_net("n0", 1.0);
    d.connect(net, pa);
    d.connect(net, pb);
    PlaceResult res;
    ASSERT_NO_THROW(res = GlobalPlacer(degenerate_cfg()).place(d));
    EXPECT_EQ(res.placed.num_cells(), 5);
}

// ---------------------------------------------------------------------------
// Hardened netlist reader: typed errors with line numbers
// ---------------------------------------------------------------------------

TEST(NetlistParseErrorTest, CorruptedFixturesReportTypedLineErrors) {
    struct Fixture {
        const char* label;
        const char* text;
        int line;
    };
    const Fixture fixtures[] = {
        {"truncated cell", "cell broken\n", 1},
        {"bad cell kind",
         "region 0 0 10 10\ncell a xyz 1 1 5 5\n", 2},
        {"non-numeric cell field",
         "region 0 0 10 10\ncell a mov 1 1 five 5\n", 2},
        {"negative cell dims",
         "region 0 0 10 10\ncell a mov -5 5 0 0\n", 2},
        {"inverted region", "region 10 10 0 0\n", 1},
        {"non-positive rowheight", "rowheight -3\n", 1},
        {"zero sitewidth", "sitewidth 0\n", 1},
        {"overflowing region coordinate", "region 0 0 1e999 10\n", 1},
        {"pin on missing cell",
         "region 0 0 10 10\ncell a mov 1 1 5 5\npin 3 0 0\n", 3},
        {"net on missing pin",
         "region 0 0 10 10\nnet n1 1.0 0\n", 2},
        {"pin connected twice",
         "region 0 0 10 10\ncell a mov 1 1 5 5\npin 0 0 0\n"
         "net n1 1 0\nnet n2 1 0\n", 5},
        {"negative net weight",
         "region 0 0 10 10\nnet n1 -2\n", 2},
        {"trailing garbage on net",
         "region 0 0 10 10\ncell a mov 1 1 5 5\npin 0 0 0\nnet n 1 0 junk\n",
         4},
        {"bad rail orientation", "rail x 0 0 1 1\n", 1},
        {"unknown directive", "bogus 1 2\n", 1},
    };
    for (const Fixture& f : fixtures) {
        std::istringstream is(f.text);
        try {
            read_design(is);
            FAIL() << f.label << ": expected a ParseError";
        } catch (const ParseError& e) {
            EXPECT_EQ(e.line(), f.line) << f.label << ": " << e.what();
            EXPECT_FALSE(e.reason().empty()) << f.label;
            // The formatted message names the line for humans too.
            EXPECT_NE(std::string(e.what()).find(
                          "line " + std::to_string(f.line)),
                      std::string::npos)
                << f.label << ": " << e.what();
        }
    }
}

TEST(NetlistParseErrorTest, ParseErrorIsARuntimeError) {
    // Callers that only know std::runtime_error keep working.
    std::istringstream is("bogus\n");
    EXPECT_THROW(read_design(is), std::runtime_error);
}

// ---------------------------------------------------------------------------
// StageGuard budget/retry ledger (unit level)
// ---------------------------------------------------------------------------

TEST(StageGuardTest, BoundedRetriesThenDegrade) {
    recover::RecoverConfig cfg;
    cfg.max_retries = 2;
    recover::RecoveryReport report;
    recover::StageGuard guard("routability-gp", cfg, &report);
    ASSERT_TRUE(guard.active());
    EXPECT_TRUE(guard.allow_retry(FaultKind::GradientNaN, 0, "first"));
    EXPECT_TRUE(guard.allow_retry(FaultKind::GradientNaN, 1, "second"));
    EXPECT_FALSE(guard.allow_retry(FaultKind::GradientNaN, 2, "third"));
    EXPECT_EQ(guard.retries_used(), 2);
    guard.degrade(FaultKind::GradientNaN, 2, "giving up");
    EXPECT_EQ(report.degraded_stages, 1);
    EXPECT_EQ(report.count(FaultKind::GradientNaN), 3);  // 2 retries + degrade
}

TEST(StageGuardTest, DisabledGuardGrantsNothing) {
    recover::RecoverConfig cfg;
    cfg.enabled = false;
    recover::RecoveryReport report;
    recover::StageGuard guard("legalize", cfg, &report);
    EXPECT_FALSE(guard.active());
    EXPECT_FALSE(guard.allow_retry(FaultKind::AuditViolation, 0, "x"));
    EXPECT_FALSE(guard.over_budget(0));
    EXPECT_TRUE(report.events.empty());
}

TEST(StageGuardTest, WallClockBudgetExpires) {
    recover::RecoverConfig cfg;
    cfg.stage_budget_ms = 1e-6;
    recover::RecoveryReport report;
    recover::StageGuard guard("wirelength-gp", cfg, &report);
    // Construction already consumed more than a nanosecond.
    EXPECT_TRUE(guard.over_budget(0));
    EXPECT_TRUE(guard.over_budget(1));  // latched
    EXPECT_EQ(report.count(FaultKind::StageTimeout), 1);  // recorded once
    EXPECT_EQ(report.degraded_stages, 1);
}

}  // namespace
}  // namespace rdp
