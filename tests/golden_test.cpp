// Golden end-to-end digests: pin what the placer's output *is*.
//
// Every other equivalence test compares two runs (threads vs threads,
// scalar vs AVX2, reused vs fresh router scratch, killed vs
// uninterrupted), so a change that moves every mode the same way passes
// them all. These runs pin an absolute FNV-1a-64 digest instead, over the
// final positions, hpwl_final, route_best_iter, and the recovery event
// sequence (stage, kind, action, iteration) — clean runs of two small
// designs in all three PlacerModes, router-mode runs of two scaled-down
// suite designs, one run per Table II toggle (no MCI / DC / DPA) and per
// alternative congestion model (RUDY source, bounding-box DC penalty), the
// RUDY source on the second design and through a routability rollback, plus
// one run per injected fault the recovery suite uses.
// A second digest per run pins the evaluation routing of the final
// placement (evaluate_placement's DRWL, #vias and #DRVs at twice the
// placement grid, as the Table I harness scores it).
//
// A mismatch prints the actual digest. Moving one on purpose means editing
// the table below and saying in the change log why the bits moved.
// `ctest -L golden` selects this suite.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "benchgen/generator.hpp"
#include "benchgen/ispd_suite.hpp"
#include "eval/route_metrics.hpp"
#include "place/global_placer.hpp"
#include "recover/durable_checkpoint.hpp"
#include "recover/fault_injection.hpp"
#include "util/simd.hpp"

namespace rdp {
namespace {

using recover::FaultKind;
using recover::FaultSpec;

uint64_t mix(uint64_t h, const void* p, size_t n) {
    return recover::fnv1a64(p, n, h);
}

uint64_t mix_str(uint64_t h, const std::string& s) {
    const uint64_t n = s.size();
    return mix(mix(h, &n, sizeof(n)), s.data(), s.size());
}

uint64_t result_digest(const PlaceResult& r) {
    uint64_t h = recover::kFnvOffset;
    for (const Cell& c : r.placed.cells) {
        h = mix(h, &c.pos.x, sizeof(double));
        h = mix(h, &c.pos.y, sizeof(double));
    }
    h = mix(h, &r.hpwl_final, sizeof(double));
    h = mix(h, &r.route_best_iter, sizeof(int));
    for (const recover::RecoveryEvent& e : r.recovery.events) {
        const int kind = static_cast<int>(e.kind);
        h = mix_str(h, e.stage);
        h = mix(h, &kind, sizeof(kind));
        h = mix_str(h, e.action);
        h = mix(h, &e.iter, sizeof(e.iter));
    }
    return h;
}

uint64_t eval_digest(const EvalMetrics& m) {
    uint64_t h = recover::kFnvOffset;
    h = mix(h, &m.drwl, sizeof(m.drwl));
    h = mix(h, &m.vias, sizeof(m.vias));
    return mix(h, &m.drvs, sizeof(m.drvs));
}

GeneratorConfig design_a() {
    GeneratorConfig cfg;
    cfg.name = "golden-a";
    cfg.seed = 11;
    cfg.num_cells = 300;
    cfg.num_macros = 1;
    cfg.macro_area_frac = 0.08;
    cfg.utilization = 0.7;
    cfg.num_ios = 12;
    return cfg;
}

GeneratorConfig design_b() {
    GeneratorConfig cfg;
    cfg.name = "golden-b";
    cfg.seed = 23;
    cfg.num_cells = 240;
    cfg.num_macros = 2;
    cfg.macro_area_frac = 0.1;
    cfg.utilization = 0.75;
    cfg.num_ios = 10;
    return cfg;
}

/// Short schedule: the same shape the recovery suite runs its faults on.
PlacerConfig short_cfg(PlacerMode mode) {
    PlacerConfig cfg;
    cfg.mode = mode;
    cfg.grid_bins = 32;
    cfg.max_wl_iters = 100;
    cfg.stop_overflow = 0.12;
    cfg.max_route_iters = 3;
    cfg.inner_iters = 5;
    cfg.router.rrr_rounds = 1;
    cfg.dp.max_passes = 1;
    return cfg;
}

class GoldenTest : public ::testing::Test {
protected:
    void SetUp() override {
        if (simd::fma_enabled())
            GTEST_SKIP() << "RDP_SIMD_FMA fuses multiply-adds, which changes"
                            " the bits by design";
        recover::fault::clear();
    }
    void TearDown() override { recover::fault::clear(); }

    static void expect_digest(const char* name, const GeneratorConfig& gen,
                              const PlacerConfig& cfg, uint64_t golden,
                              uint64_t eval_golden,
                              const FaultSpec* fault = nullptr) {
        recover::fault::clear();
        if (fault != nullptr) recover::fault::arm(*fault);
        const PlaceResult res = GlobalPlacer(cfg).place(generate_circuit(gen));
        recover::fault::clear();
        EvalConfig ec;
        ec.grid_bins = 2 * cfg.grid_bins;
        const uint64_t got = result_digest(res);
        const uint64_t got_eval =
            eval_digest(evaluate_placement(res.placed, ec));
        EXPECT_EQ(got, golden) << name << ": actual digest " << hex(got);
        EXPECT_EQ(got_eval, eval_golden)
            << name << ": actual evaluation digest " << hex(got_eval);
    }

    static std::string hex(uint64_t v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ull", v);
        return buf;
    }
};

TEST_F(GoldenTest, CleanRunsInEveryMode) {
    struct Run {
        const char* name;
        GeneratorConfig gen;
        PlacerMode mode;
        uint64_t golden;
        uint64_t eval_golden;
    };
    const Run runs[] = {
        {"a/wirelength-only", design_a(), PlacerMode::WirelengthOnly,
         0xdbdf00b14d91872aull, 0x8e153f1c1c97ec8cull},
        {"a/route-baseline", design_a(), PlacerMode::RouteBaseline,
         0xadeaae444211b656ull, 0xdac6858ebe69fdc0ull},
        {"a/ours", design_a(), PlacerMode::Ours, 0xdc349d30566be85eull,
         0x0858a3f5338ae34dull},
        {"b/wirelength-only", design_b(), PlacerMode::WirelengthOnly,
         0x071d127d5e2ce08eull, 0x30cb93888de4d733ull},
        {"b/route-baseline", design_b(), PlacerMode::RouteBaseline,
         0xec1c4d5dbde8cf32ull, 0x30cb93888de4d733ull},
        {"b/ours", design_b(), PlacerMode::Ours, 0xf67541121781dff9ull,
         0x8333d7f9b28f3caaull},
    };
    for (const Run& r : runs)
        expect_digest(r.name, r.gen, short_cfg(r.mode), r.golden,
                      r.eval_golden);
}

TEST_F(GoldenTest, SuiteDesignsInRouterMode) {
    // Two more designs from the Table I suite, scaled down to ~300 cells:
    // one with macros at high utilization, one whose fence was removed.
    struct Run {
        const char* name;
        uint64_t golden;
        uint64_t eval_golden;
    };
    const Run runs[] = {
        {"fft_b", 0x25da0b17e37cf026ull, 0xb21fa2a5c2bb7dd7ull},
        {"pci_bridge32_a", 0xd436007c3a97100bull,
         0x89d1eff524fc23b8ull},
    };
    for (const Run& r : runs)
        expect_digest(r.name, suite_entry(r.name, 0.2).gen,
                      short_cfg(PlacerMode::Ours), r.golden, r.eval_golden);
}

TEST_F(GoldenTest, AblationTogglesAndCongestionModels) {
    struct Run {
        const char* name;
        void (*apply)(PlacerConfig&);
        uint64_t golden;
        uint64_t eval_golden;
    };
    const Run runs[] = {
        {"a/no-mci", [](PlacerConfig& c) { c.enable_mci = false; },
         0x19a51c4173fe95a0ull, 0x3684b6871cd7e4beull},
        {"a/no-dc", [](PlacerConfig& c) { c.enable_dc = false; },
         0x9aa7e6a511630b08ull, 0x3d2fef12edd43d61ull},
        {"a/no-dpa", [](PlacerConfig& c) { c.enable_dpa = false; },
         0xf7a5364031f2acf2ull, 0xc0a92046ae6bf795ull},
        {"a/rudy-congestion",
         [](PlacerConfig& c) { c.use_rudy_congestion = true; },
         0x8109120275023a46ull, 0x4887ec5a9486d06bull},
        {"a/bbox-dc-model",
         [](PlacerConfig& c) { c.use_bbox_dc_model = true; },
         0xb39019e78ac3bdceull, 0x8e153f1c1c97ec8cull},
    };
    for (const Run& r : runs) {
        PlacerConfig cfg = short_cfg(PlacerMode::Ours);
        r.apply(cfg);
        expect_digest(r.name, design_a(), cfg, r.golden, r.eval_golden);
    }
}

TEST_F(GoldenTest, RudyCongestionSource) {
    // The RUDY source on the second design, and a RUDY run whose
    // routability stage rolls back after an injected NaN gradient, so the
    // map is rebuilt from the restored placement.
    const FaultSpec nan_fault{"routability-gp", FaultKind::GradientNaN, 1, 1};
    struct Run {
        const char* name;
        GeneratorConfig gen;
        const FaultSpec* fault;
        uint64_t golden;
        uint64_t eval_golden;
    };
    const Run runs[] = {
        {"b/rudy-congestion", design_b(), nullptr, 0xc0551777ff180340ull,
         0xa47530360125b221ull},
        {"a/rudy-congestion+routability-gp:gradient-nan", design_a(),
         &nan_fault, 0x0603613187f5072dull, 0x8ca68fd6b1ad7708ull},
    };
    for (const Run& r : runs) {
        PlacerConfig cfg = short_cfg(PlacerMode::Ours);
        cfg.use_rudy_congestion = true;
        expect_digest(r.name, r.gen, cfg, r.golden, r.eval_golden, r.fault);
    }
}

TEST_F(GoldenTest, EveryRecoveryPath) {
    struct Run {
        FaultSpec spec;
        uint64_t golden;
        uint64_t eval_golden;
    };
    const Run runs[] = {
        {{"wirelength-gp", FaultKind::GradientNaN, 30, 1},
         0x6c62e032131cd4dcull, 0xb80af5292a250ad6ull},
        {{"wirelength-gp", FaultKind::HpwlExplosion, 30, 1},
         0xe58777046edf9ca8ull, 0xb80af5292a250ad6ull},
        {{"routability-gp", FaultKind::GradientNaN, 1, 1},
         0x1c1a389806eb25b9ull, 0xbeb5edbfa3793b7full},
        {{"routability-gp", FaultKind::HpwlExplosion, 1, 1},
         0xe115d6201314d69full, 0xbeb5edbfa3793b7full},
        {{"routability-gp", FaultKind::CorruptedDemand, 1, 1},
         0xe66738a90e993e2eull, 0x0858a3f5338ae34dull},
        {{"routability-gp", FaultKind::RouterNoProgress, 1, 1},
         0xd5ae40a64674619bull, 0x0d05e8a58399a107ull},
        {{"routability-gp", FaultKind::CorruptedBudget, 1, 1},
         0x24cb8ede09b97b26ull, 0x0858a3f5338ae34dull},
        {{"routability-gp", FaultKind::OverflowOscillation, 0, 16},
         0xd8d897f46b335058ull, 0x05e8a586ce2f5765ull},
    };
    for (const Run& r : runs) {
        PlacerConfig cfg = short_cfg(PlacerMode::Ours);
        if (r.spec.kind == FaultKind::OverflowOscillation) {
            // Long enough for the oscillation window to build up.
            cfg.max_route_iters = 8;
            cfg.inner_iters = 3;
            cfg.stop_patience = 99;
        }
        const std::string name = r.spec.stage + ":" +
                                 recover::fault_kind_name(r.spec.kind);
        expect_digest(name.c_str(), design_a(), cfg, r.golden, r.eval_golden,
                      &r.spec);
    }
}

}  // namespace
}  // namespace rdp
