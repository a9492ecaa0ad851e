#include "place/global_placer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include <iomanip>
#include <sstream>

#include "audit/invariant_audit.hpp"
#include "db/netlist_io.hpp"
#include "legal/abacus.hpp"
#include "legal/pin_access_refine.hpp"
#include "place/nesterov.hpp"
#include "place/objective.hpp"
#include "place/routability_loop.hpp"
#include "recover/divergence.hpp"
#include "recover/durable_checkpoint.hpp"
#include "recover/kill_points.hpp"
#include "recover/stage_guard.hpp"
#include "util/config_error.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "wirelength/hpwl.hpp"

namespace rdp {

namespace {

/// Design + curated-config fingerprint stored in every durable snapshot
/// (DESIGN.md §16): a checkpoint must never resume a different design,
/// seed, or schedule — any of those silently breaks the bitwise-identity
/// contract of a resumed run.
uint64_t durable_fingerprint(const Design& d, const PlacerConfig& cfg) {
    std::ostringstream ss;
    write_design(d, ss);
    ss << std::setprecision(17) << "|mode=" << static_cast<int>(cfg.mode)
       << "|mci=" << cfg.enable_mci << "|dc=" << cfg.enable_dc
       << "|dpa=" << cfg.enable_dpa << "|bins=" << cfg.grid_bins
       << "|td=" << cfg.density.target_density
       << "|filler=" << cfg.filler_ratio << "|g=" << cfg.gamma_frac << ":"
       << cfg.gamma_min_frac << ":" << cfg.gamma_decay
       << "|l1=" << cfg.lambda1_growth << "|wl=" << cfg.max_wl_iters << ":"
       << cfg.stop_overflow << "|route=" << cfg.max_route_iters << ":"
       << cfg.inner_iters << ":" << cfg.stop_patience
       << "|infl=" << cfg.inflation_budget_frac << ":"
       << cfg.keep_best_margin << "|w=" << cfg.dc_weight << ":"
       << cfg.dpa_weight << ":" << cfg.route_lambda1_boost << ":"
       << cfg.static_pg_weight << "|bbox=" << cfg.use_bbox_dc_model
       << "|rudy=" << cfg.use_rudy_congestion
       << "|padp=" << cfg.enable_pin_access_dp
       << "|nm=" << cfg.netmove.multi_pin_congestion_threshold
       << "|seed=" << cfg.seed;
    const std::string text = ss.str();
    return recover::fnv1a64(text.data(), text.size());
}

/// The one place a run's configuration is resolved: the environment
/// overrides of the recovery and durable layers are applied here, once per
/// place() call, and every stage reads only the returned config. A
/// malformed value warns once and keeps the configured one (util/env.hpp).
PlacerConfig resolve_run_config(PlacerConfig cfg) {
    cfg.recover.enabled =
        cfg.recover.enabled && env::flag_or("RDP_RECOVER", true);
    cfg.recover.stage_budget_ms = env::double_or(
        "RDP_STAGE_BUDGET_MS", cfg.recover.stage_budget_ms, 0.0, 1e12);
    if (const auto dir = env::raw("RDP_CHECKPOINT_DIR"); dir && !dir->empty())
        cfg.durable.dir = *dir;
    cfg.durable.every = static_cast<int>(
        env::int_or("RDP_CHECKPOINT_EVERY", cfg.durable.every, 1, 1 << 20));
    if (const auto res = env::raw("RDP_RESUME"); res && !res->empty())
        cfg.durable.resume = *res;
    return cfg;
}

/// The nested stage configs. Unchecked, a NaN target density degrades
/// stage 1 to 0 iterations and -1 or 0 disables its early stop; a NaN MCI
/// alpha or gain trips the inflation-budget audit and degrades stage 2; an
/// MCI r_max below r_min breaks std::clamp's precondition; a negative or
/// NaN Tetris vertical weight, net-moving distance scale or threshold, or
/// rail-selection fraction is run as given, and a negative pass count or
/// search radius is read as 0.
void validate_stage_configs(const PlacerConfig& cfg) {
    require_positive("density.target_density", cfg.density.target_density);
    require_at_most("density.target_density", cfg.density.target_density,
                    1.0);
    require_at_least("dp.max_passes", cfg.dp.max_passes, 0);
    require_at_least("dp.min_improvement", cfg.dp.min_improvement, 0.0);
    require_at_least("tetris.row_search_radius", cfg.tetris.row_search_radius,
                     0);
    require_at_least("tetris.vertical_weight", cfg.tetris.vertical_weight, 0.0);
    require_positive("mci.r_min", cfg.mci.r_min);
    require_at_least("mci.r_max", cfg.mci.r_max, cfg.mci.r_min);
    require_at_least("mci.alpha", cfg.mci.alpha, 0.0);
    require_at_most("mci.alpha", cfg.mci.alpha, 1.0);
    require_at_least("mci.congestion_gain", cfg.mci.congestion_gain, 0.0);
    require_positive("mci.min_avg_congestion", cfg.mci.min_avg_congestion);
    require_at_least("mci.max_deflation", cfg.mci.max_deflation, 0.0);
    require_at_least("netmove.multi_pin_congestion_threshold",
                     cfg.netmove.multi_pin_congestion_threshold, 0.0);
    require_at_least("netmove.min_virtual_congestion",
                     cfg.netmove.min_virtual_congestion, 0.0);
    require_positive("netmove.min_pin_distance_frac",
                     cfg.netmove.min_pin_distance_frac);
    require_positive("netmove.max_distance_scale",
                     cfg.netmove.max_distance_scale);
    require_at_least("netmove.max_multi_pin_degree",
                     cfg.netmove.max_multi_pin_degree, 0);
    require_at_least("rail_select.macro_expand_frac",
                     cfg.rail_select.macro_expand_frac, 0.0);
    require_at_least("rail_select.min_length_frac",
                     cfg.rail_select.min_length_frac, 0.0);
    require_at_most("rail_select.min_length_frac",
                    cfg.rail_select.min_length_frac, 1.0);
}

/// Rejects a field outside its domain with a ConfigError before place()
/// does any work: unchecked, a negative maze margin crashes the router,
/// grid_bins < 1 silently places on a 1 x 1 grid (and one that is not a
/// power of two on the next larger one), a zero gamma_frac
/// divides the WA model by zero, and a NaN or negative schedule, stop or
/// budget value is either run as given or left to the recovery layer to
/// degrade the stage.
void validate_placer_config(const PlacerConfig& cfg) {
    require_power_of_two("grid_bins", cfg.grid_bins);
    require_at_least("max_wl_iters", cfg.max_wl_iters, 0);
    require_at_least("inner_iters", cfg.inner_iters, 0);
    require_at_least("max_route_iters", cfg.max_route_iters, 0);
    require_at_least("stop_patience", cfg.stop_patience, 0);
    require_at_least("dc_weight", cfg.dc_weight, 0.0);
    require_at_least("dpa_weight", cfg.dpa_weight, 0.0);
    require_at_least("filler_ratio", cfg.filler_ratio, 0.0);
    // gamma divides the WA exponents; gamma_min_frac is its floor.
    require_positive("gamma_frac", cfg.gamma_frac);
    require_positive("gamma_min_frac", cfg.gamma_min_frac);
    require_at_least("gamma_decay", cfg.gamma_decay, 0.0);
    require_at_least("lambda1_growth", cfg.lambda1_growth, 0.0);
    require_at_least("stop_overflow", cfg.stop_overflow, 0.0);
    require_at_least("inflation_budget_frac", cfg.inflation_budget_frac, 0.0);
    require_at_least("keep_best_margin", cfg.keep_best_margin, 0.0);
    require_at_least("route_lambda1_boost", cfg.route_lambda1_boost, 0.0);
    require_at_least("static_pg_weight", cfg.static_pg_weight, 0.0);
    validate_stage_configs(cfg);
    validate_router_config(cfg.router);
}

constexpr const char* kWirelengthStage = "wirelength-gp";

/// Stage 1 of Fig. 2: wirelength-driven GP. Its loop state is one
/// PipelineSnapshot (`st_`); the solver owns positions and momentum
/// between captures.
class WirelengthStage {
public:
    WirelengthStage(Design& d, const std::vector<int>& movable,
                    PlacementObjective& obj, const PlacerConfig& cfg,
                    recover::DurableCheckpointer& durable, PlaceResult& res)
        : d_(d),
          movable_(movable),
          obj_(obj),
          cfg_(cfg),
          durable_(durable),
          res_(res),
          guard_(kWirelengthStage, cfg.recover, &res.recovery),
          checks_(d, movable, cfg.recover, guard_.active(), kWirelengthStage,
                  "iteration"),
          solver_(d.positions(movable)) {}

    /// Run the stage from its entry state, or from `resume` (stage 1).
    void run(const recover::PipelineSnapshot* resume);

private:
    /// One iteration; true once the stop criterion is met. Throws on
    /// divergence.
    bool iterate();
    /// Recovery ladder: roll back to the rollback point with a halved step
    /// and a tightened lambda schedule. False once retries are exhausted
    /// (the stage then finishes on the rollback point).
    bool recover(recover::FaultKind kind, const char* what);

    Design& d_;
    const std::vector<int>& movable_;
    PlacementObjective& obj_;
    const PlacerConfig& cfg_;
    recover::DurableCheckpointer& durable_;
    PlaceResult& res_;
    recover::StageGuard guard_;
    recover::DivergenceChecks checks_;
    NesterovSolver solver_;
    std::vector<Vec2> grad_;
    recover::PipelineSnapshot st_;
    recover::RollbackPoint ckpt_;
    size_t hist_at_ckpt_ = 0;  ///< overflow-history mark of `ckpt_`
};

void WirelengthStage::run(const recover::PipelineSnapshot* resume) {
    const double bin = std::max(obj_.grid().bin_w(), obj_.grid().bin_h());
    st_.stage = recover::kStageWirelength;
    st_.lambda1_growth = cfg_.lambda1_growth;
    st_.cur.gamma = cfg_.gamma_frac * bin;
    // lambda_1 initialization: ||grad W||_1 / ||grad D||_1.
    obj_.set_lambda1(0.0);
    const ObjectiveTerms t0 =
        obj_.evaluate(d_, movable_, solver_.reference(), grad_);
    st_.cur.lambda1 = t0.density_grad_l1 > 0.0
                          ? t0.wl_grad_l1 / t0.density_grad_l1
                          : 1.0;
    if (resume != nullptr) {
        // Rebuild the optimizer exactly as serialized: positions plus the
        // full momentum state, under the snapshot's (possibly
        // recovery-adjusted) step and schedule knobs. The iterations from
        // here on are bitwise identical to the uninterrupted run.
        st_ = *resume;
        solver_ = NesterovSolver(std::move(st_.cur.pos),
                                 NesterovConfig{st_.initial_step});
        solver_.restore(st_.opt);
        res_.wl_iters = st_.iter;
        RDP_LOG_INFO() << "resumed wirelength-gp at iteration " << st_.iter;
    }
    obj_.set_lambda1(st_.cur.lambda1);
    obj_.set_gamma(st_.cur.gamma);

    while (st_.iter < cfg_.max_wl_iters) {
        if (guard_.over_budget(st_.iter)) break;
        if (guard_.active() &&
            (!ckpt_.valid() ||
             st_.iter - ckpt_.iter >= cfg_.recover.checkpoint_every)) {
            ckpt_ = {st_.iter, st_.cur};
            ckpt_.at.pos = solver_.solution();
            hist_at_ckpt_ = res_.overflow_history.size();
        }
        if (durable_.enabled() && st_.iter % durable_.every() == 0) {
            st_.cur.pos = solver_.solution();
            st_.opt = solver_.snapshot();
            durable_.save(st_);
        }
        recover::crash::maybe_kill("wl-mid");
        try {
            if (iterate()) break;
        } catch (const recover::RecoverableError& e) {
            if (!recover(e.kind(), e.what())) break;
        } catch (const AuditFailure& e) {
            if (!guard_.active()) throw;
            if (!recover(recover::classify_audit_failure(e), e.what())) break;
        }
    }
    d_.set_positions(movable_, solver_.solution());
}

bool WirelengthStage::iterate() {
    if (checks_.explosion_fires(st_.iter))
        solver_ = NesterovSolver(checks_.fling(solver_.solution()),
                                 NesterovConfig{st_.initial_step});
    const ObjectiveTerms terms =
        obj_.evaluate(d_, movable_, solver_.reference(), grad_);
    checks_.objective(terms.wirelength + terms.density + terms.overflow,
                      terms.wirelength, ckpt_.at.last_wl, st_.iter);
    res_.overflow_history.push_back(terms.overflow);
    checks_.gradient(grad_, true, st_.iter, st_.iter);
    solver_.step(grad_, checks_.project());
    st_.cur.lambda1 *= st_.lambda1_growth;
    obj_.set_lambda1(st_.cur.lambda1);
    const double bin = std::max(obj_.grid().bin_w(), obj_.grid().bin_h());
    st_.cur.gamma =
        std::max(st_.cur.gamma * cfg_.gamma_decay, cfg_.gamma_min_frac * bin);
    obj_.set_gamma(st_.cur.gamma);
    ++res_.wl_iters;
    st_.cur.last_wl = terms.wirelength;
    if (cfg_.verbose && st_.iter % 50 == 0) {
        RDP_LOG_INFO() << "[wl-iter " << st_.iter
                       << "] overflow=" << terms.overflow
                       << " WA=" << terms.wirelength;
    }
    const bool done = terms.overflow < cfg_.stop_overflow && st_.iter > 20;
    ++st_.iter;
    return done;
}

bool WirelengthStage::recover(recover::FaultKind kind, const char* what) {
    const bool retry = guard_.allow_retry(kind, st_.iter, what);
    if (ckpt_.valid()) {
        if (retry) {
            st_.initial_step *= cfg_.recover.step_shrink;
            st_.lambda1_growth = 1.0 + (st_.lambda1_growth - 1.0) *
                                           cfg_.recover.lambda_tighten;
        }
        // Rollback: positions, lambda_1, gamma, and the overflow history.
        solver_ = NesterovSolver(ckpt_.at.pos,
                                 NesterovConfig{st_.initial_step});
        st_.cur.lambda1 = ckpt_.at.lambda1;
        st_.cur.gamma = ckpt_.at.gamma;
        obj_.set_lambda1(st_.cur.lambda1);
        obj_.set_gamma(st_.cur.gamma);
        res_.overflow_history.resize(hist_at_ckpt_);
        res_.wl_iters = ckpt_.iter;
        st_.iter = ckpt_.iter;
    }
    if (!retry) {
        guard_.degrade(kind, st_.iter,
                       "retries exhausted; finishing on the last checkpoint");
        return false;
    }
    ++res_.recovery.rollbacks;
    std::ostringstream oss;
    oss << "restored checkpoint of iteration " << ckpt_.iter << "; step x"
        << cfg_.recover.step_shrink << ", lambda1 growth -> "
        << st_.lambda1_growth;
    guard_.record(kind, st_.iter, "rollback", oss.str());
    return true;
}

}  // namespace

int GlobalPlacer::add_fillers(Design& d, const PlacerConfig& cfg,
                              uint64_t seed) {
    const int first = d.num_cells();
    const double free_area = d.region.area() - d.total_fixed_area();
    const double spare =
        cfg.density.target_density * free_area - d.total_movable_area();
    if (spare <= 0.0) return first;

    // Filler size: mean movable cell dimensions.
    double mean_w = 0.0, mean_h = d.row_height;
    int n_mov = 0;
    for (const Cell& c : d.cells) {
        if (!c.movable()) continue;
        mean_w += c.width;
        ++n_mov;
    }
    if (n_mov == 0) return first;
    mean_w /= n_mov;
    const double fa = mean_w * mean_h;
    const int count =
        static_cast<int>(std::floor(cfg.filler_ratio * spare / fa));

    Rng rng(seed ^ 0xF117E55ull);
    for (int i = 0; i < count; ++i) {
        const Vec2 p{rng.uniform(d.region.lx + mean_w / 2,
                                 d.region.hx - mean_w / 2),
                     rng.uniform(d.region.ly + mean_h / 2,
                                 d.region.hy - mean_h / 2)};
        d.add_cell("__filler_" + std::to_string(i), mean_w, mean_h,
                   CellKind::Movable, p);
    }
    return first;
}

PlaceResult GlobalPlacer::place(const Design& input) const {
    const auto t0 = std::chrono::steady_clock::now();
    RDP_LOG_INFO() << "simd backend: " << simd::backend_name()
                   << (simd::fma_enabled() ? " (fma)" : "");
    const PlacerConfig cfg = resolve_run_config(cfg_);
    validate_placer_config(cfg);
    PlaceResult res;

    Design d = input;
    if (d.rows.empty()) d.build_rows();

    // Durable checkpoint/resume layer (DESIGN.md §16). The fingerprint is
    // computed on the pre-placement design (movable input positions are
    // overwritten below either way), so the same input file and config
    // always fingerprint identically.
    uint64_t fingerprint = 0;
    if (!cfg.durable.dir.empty() || !cfg.durable.resume.empty())
        fingerprint = durable_fingerprint(d, cfg);
    recover::DurableCheckpointer durable(cfg.durable, fingerprint);
    const std::optional<recover::PipelineSnapshot> resume =
        durable.load_resume();
    const bool resume_stage2 =
        resume && resume->stage == recover::kStageRoutability;

    // Initial positions: movable cells near the centroid of fixed pins
    // (or the region center), with a small deterministic spread.
    {
        Vec2 centroid = d.region.center();
        Rng rng(cfg.seed);
        const double sx = d.region.width() * 0.08;
        const double sy = d.region.height() * 0.08;
        for (Cell& c : d.cells) {
            if (!c.movable()) continue;
            c.pos = {centroid.x + rng.normal(0.0, sx),
                     centroid.y + rng.normal(0.0, sy)};
        }
        d.clamp_movables_to_region();
    }

    const int first_filler = add_fillers(d, cfg, cfg.seed);
    std::vector<int> movable = d.movable_cells();

    // Shared grid for density, G-cells, and congestion (paper II-B).
    const BinGrid grid(d.region, cfg.grid_bins, cfg.grid_bins);
    PlacementObjective obj(grid, cfg.density, cfg.netmove,
                           cfg.gamma_frac *
                               std::max(grid.bin_w(), grid.bin_h()));
    obj.bind(d);

    // ---- Stage 1: wirelength-driven GP ------------------------------------
    // Skipped entirely when resuming from a routability-stage snapshot:
    // everything it would compute is superseded by the snapshot state.
    if (!resume_stage2) {
        const AuditStageScope audit_scope(kWirelengthStage);
        WirelengthStage(d, movable, obj, cfg, durable, res)
            .run(resume ? &*resume : nullptr);
    }

    // ---- Stage 2: routability-driven GP ------------------------------------
    if (cfg.mode != PlacerMode::WirelengthOnly) {
        // PG rail selection from macro positions (Fig. 2 pre-process).
        const std::vector<PGRail> rails = select_pg_rails(d, cfg.rail_select);
        recover::StageGuard sguard("routability-gp", cfg.recover,
                                   &res.recovery);
        // The stage handles in-loop failures itself; anything escaping
        // (entry/exit audits) skips the optional stage: the stage-1
        // placement continues into legalization.
        const auto skip = [&](recover::FaultKind kind, const char* what) {
            obj.set_congestion(nullptr, nullptr);
            obj.set_extra_density(nullptr);
            obj.set_inflation(nullptr);
            sguard.degrade(kind, -1,
                           std::string("routability stage skipped: ") + what);
        };
        try {
            const RoutabilityStats rs = run_routability_stage(
                d, movable, obj, cfg, rails, first_filler, &durable,
                resume_stage2 ? &*resume : nullptr);
            res.route_outer_iters = rs.outer_iters;
            res.congestion_history = rs.total_overflow;
            res.penalty_history = rs.penalty;
            res.route_best_iter = rs.best_iter;
            res.recovery.events.insert(res.recovery.events.end(),
                                       rs.recovery.events.begin(),
                                       rs.recovery.events.end());
            res.recovery.rollbacks += rs.recovery.rollbacks;
            res.recovery.degraded_stages += rs.recovery.degraded_stages;
        } catch (const AuditFailure& e) {
            if (!sguard.active()) throw;
            skip(recover::classify_audit_failure(e), e.what());
        } catch (const recover::RecoverableError& e) {
            if (!sguard.active()) throw;
            skip(e.kind(), e.what());
        }
    }

    // ---- Legalization + detailed placement ---------------------------------
    // Strip fillers (they were appended last and own no pins).
    d.cells.resize(static_cast<size_t>(first_filler));
    d.clamp_movables_to_region();
    res.hpwl_gp = total_hpwl(d);

    std::vector<Vec2> desired(static_cast<size_t>(d.num_cells()));
    for (int i = 0; i < d.num_cells(); ++i)
        desired[static_cast<size_t>(i)] = d.cells[static_cast<size_t>(i)].pos;

    {
        const AuditStageScope audit_scope("legalize");
        recover::StageGuard sguard("legalize", cfg.recover, &res.recovery);
        try {
            res.legal_stats = tetris_legalize(d, cfg.tetris);
            abacus_refine(d, desired);
            res.dp_stats = detailed_place(d, cfg.dp);
            if (cfg.enable_pin_access_dp) {
                const std::vector<PGRail> rails =
                    select_pg_rails(d, cfg.rail_select);
                pin_access_refine(d, rails);
            }
            // Invariant audit: the legalization pipeline must leave every
            // cell row/site-aligned and overlap-free. Skipped when Tetris
            // reported unplaceable cells (pathological utilization) — the
            // failure is already visible in legal_stats.
            if (audit_enabled() && res.legal_stats.cells_failed == 0)
                audit::check_legalized(d);
        } catch (const AuditFailure& e) {
            // A tripped legalization audit degrades to the best-effort
            // placement instead of ending the run; the violation stays
            // visible in the recovery report.
            if (!sguard.active()) throw;
            sguard.degrade(recover::classify_audit_failure(e), -1,
                           std::string("returning best-effort"
                                       " legalization: ") +
                               e.what());
        }
    }
    res.hpwl_final = total_hpwl(d);

    res.placed = std::move(d);
    const auto t1 = std::chrono::steady_clock::now();
    res.place_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    return res;
}

}  // namespace rdp
