#include "place/routability_loop.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "audit/invariant_audit.hpp"
#include "congestion/rudy.hpp"
#include "pinaccess/dynamic_density.hpp"
#include "recover/divergence.hpp"
#include "recover/durable_checkpoint.hpp"
#include "recover/fault_injection.hpp"
#include "recover/kill_points.hpp"
#include "recover/stage_guard.hpp"
#include "util/log.hpp"

namespace rdp {

std::unique_ptr<InflationScheme> make_inflation_scheme(const PlacerConfig& cfg,
                                                       int num_cells) {
    if (cfg.mode == PlacerMode::Ours && cfg.enable_mci)
        return std::make_unique<MomentumInflation>(num_cells, cfg.mci);
    // Baseline framework (Xplace-Route-like) and the no-MCI ablation rows
    // use the monotone historical scheme the paper attributes to [8]/[9].
    return std::make_unique<MonotoneInflation>(num_cells,
                                               cfg.baseline_inflation);
}

double budget_inflation(const Design& d, int first_filler,
                        std::vector<double>& ratios,
                        double usable_filler_frac, double extra_area) {
    double raw_extra = 0.0;
    for (int i = 0; i < first_filler; ++i) {
        const Cell& c = d.cells[static_cast<size_t>(i)];
        if (!c.movable()) continue;
        raw_extra += c.area() * (ratios[static_cast<size_t>(i)] - 1.0);
    }
    double filler_area = 0.0;
    for (int i = first_filler; i < d.num_cells(); ++i)
        filler_area += d.cells[static_cast<size_t>(i)].area();

    // The PG density charge comes off the top of the budget.
    const double budget = std::max(
        usable_filler_frac * filler_area - extra_area, 0.0);
    if (raw_extra > budget && raw_extra > 0.0) {
        const double scale = budget / raw_extra;
        for (int i = 0; i < first_filler; ++i) {
            const Cell& c = d.cells[static_cast<size_t>(i)];
            if (!c.movable()) continue;
            auto& r = ratios[static_cast<size_t>(i)];
            r = 1.0 + scale * (r - 1.0);
        }
    }
    // Fillers shrink by exactly the area the real cells and the PG charge
    // gained (never below a small floor).
    const double consumed =
        std::min(std::max(raw_extra, 0.0), budget) +
        std::min(extra_area, usable_filler_frac * filler_area);
    const double filler_ratio =
        filler_area > 0.0
            ? std::max(1.0 - consumed / filler_area, 0.05)
            : 1.0;
    for (int i = first_filler; i < d.num_cells(); ++i)
        ratios[static_cast<size_t>(i)] = filler_ratio;
    return filler_ratio;
}

namespace {

constexpr const char* kStage = "routability-gp";

/// True when the last `flips` deltas of `window` alternate in sign and
/// each swings by at least `amplitude` of the smaller endpoint — the
/// outer-loop overflow is bouncing instead of converging.
bool overflow_oscillates(const std::vector<double>& window, int flips,
                         double amplitude) {
    if (static_cast<int>(window.size()) < flips + 1) return false;
    const size_t n = window.size();
    double prev_sign = 0.0;
    for (int i = 0; i < flips; ++i) {
        const double a = window[n - 2 - static_cast<size_t>(i)];
        const double b = window[n - 1 - static_cast<size_t>(i)];
        const double delta = b - a;
        const double base = std::max(std::min(a, b), 1e-12);
        if (!(std::abs(delta) >= amplitude * base)) return false;
        const double sign = delta > 0.0 ? 1.0 : -1.0;
        if (i > 0 && sign == prev_sign) return false;
        prev_sign = sign;
    }
    return true;
}

/// The routability-driven outer loop. Its loop state is one
/// PipelineSnapshot (`st_`); the inflation scheme owns the inflation
/// history between captures, and `cmap_` is the working map of the
/// current attempt.
class RoutabilityStage {
public:
    RoutabilityStage(Design& d, const std::vector<int>& movable,
                     PlacementObjective& obj, const PlacerConfig& cfg,
                     const std::vector<PGRail>& rails, int first_filler,
                     recover::DurableCheckpointer* durable,
                     RoutabilityStats& stats)
        : d_(d),
          movable_(movable),
          obj_(obj),
          cfg_(cfg),
          first_filler_(first_filler),
          durable_(durable),
          stats_(stats),
          grid_(obj.grid()),
          guard_(kStage, cfg.recover, &stats.recovery),
          checks_(d, movable, cfg.recover, guard_.active(), kStage,
                  "inner iteration"),
          field_(grid_),
          scheme_(make_inflation_scheme(cfg, d.num_cells())),
          rail_area_(rail_area_per_bin(rails, grid_)) {}

    /// Run the stage from its entry state, or from `resume` (stage 2).
    void run(const recover::PipelineSnapshot* resume);

private:
    /// The live iterate, inflation history pulled from the scheme.
    recover::PipelineSnapshot::Iterate capture() const {
        recover::PipelineSnapshot::Iterate at = st_.cur;
        at.inflation = scheme_->snapshot();
        return at;
    }
    /// Record the live iterate as best-so-far, scored `severe`.
    void keep_best(double severe, int iter) {
        st_.best.at = capture();
        st_.best.overflow = severe;
        st_.best.extra_area = grid_sum(st_.extra);
        st_.best.iter = iter;
    }
    /// (Re)build the router under the live relaxation knobs.
    void rebuild_router();
    /// One outer iteration; true once the stop criterion is met. Throws on
    /// divergence.
    bool iterate();
    /// Recovery ladder. False once retries are exhausted: the loop then
    /// stops and the stage finishes on its best snapshot.
    bool recover(recover::FaultKind kind, const char* what);
    /// Score the final positions too, then restore the best snapshot.
    void finish();

    Design& d_;
    const std::vector<int>& movable_;
    PlacementObjective& obj_;
    const PlacerConfig& cfg_;
    const int first_filler_;
    recover::DurableCheckpointer* durable_;
    RoutabilityStats& stats_;
    const BinGrid& grid_;
    recover::StageGuard guard_;
    recover::DivergenceChecks checks_;
    /// Router buffers reused by every congestion estimate of this stage
    /// (DESIGN.md §12); each estimate is routed from scratch.
    IncrementalRouteState route_scratch_;
    std::unique_ptr<GlobalRouter> router_;
    CongestionField field_;
    std::unique_ptr<InflationScheme> scheme_;
    const GridF rail_area_;
    CongestionMap cmap_;
    recover::PipelineSnapshot st_;
    recover::RollbackPoint ckpt_;
};

void RoutabilityStage::run(const recover::PipelineSnapshot* resume) {
    // Entry state. Static PG density (Xplace-Route style) is fixed before
    // the loop; the optimizer continues from the stage-1 result.
    st_.stage = recover::kStageRoutability;
    st_.lambda1_growth = cfg_.lambda1_growth;
    st_.dc = cfg_.mode == PlacerMode::Ours && cfg_.enable_dc;
    st_.dpa = cfg_.mode == PlacerMode::Ours && cfg_.enable_dpa;
    st_.router_overflow_penalty = cfg_.router.overflow_penalty;
    for (const LayerSpec& l : cfg_.router.layers)
        st_.router_layer_capacity.push_back(l.capacity);
    st_.cur.ratios.assign(static_cast<size_t>(d_.num_cells()), 1.0);
    st_.extra = static_pg_density(rail_area_, cfg_.static_pg_weight);
    st_.cur.pos = d_.positions(movable_);
    st_.cur.gamma = obj_.gamma();
    st_.best_metric = std::numeric_limits<double>::max();
    // The best snapshot is taken before the iteration's inflation update,
    // so the state it was scored with is the *current* ratios/extra charge.
    keep_best(std::numeric_limits<double>::max(), -1);
    obj_.set_inflation(&st_.cur.ratios);
    obj_.set_extra_density(&st_.extra);
    obj_.set_lambda2_scale(cfg_.dc_weight);

    if (resume == nullptr) {
        // Fresh lambda_1 for the stage: the stage-1 schedule leaves it
        // orders of magnitude above the gradient balance a converged
        // placement needs.
        std::vector<Vec2> grad0;
        obj_.set_lambda1(0.0);
        const ObjectiveTerms t0 =
            obj_.evaluate(d_, movable_, st_.cur.pos, grad0);
        const double ratio = t0.density_grad_l1 > 0.0
                                 ? t0.wl_grad_l1 / t0.density_grad_l1
                                 : 1.0;
        st_.cur.lambda1 = cfg_.route_lambda1_boost * ratio;
    } else {
        // Durable resume (DESIGN.md §16): the snapshot is the whole loop
        // state. Push its object-owned parts back; the remaining
        // iterations are then bitwise identical to the uninterrupted run.
        st_ = *resume;
        d_.set_positions(movable_, st_.cur.pos);
        scheme_->restore(st_.cur.inflation);
        // Stage 1 was skipped, so the objective still carries its
        // construction-time gamma, not the decayed stage-1 result.
        obj_.set_gamma(st_.cur.gamma);
        stats_.outer_iters = st_.iter;
        RDP_LOG_INFO() << "resumed " << kStage << " at outer iteration "
                       << st_.iter;
    }
    obj_.set_lambda1(st_.cur.lambda1);
    rebuild_router();

    while (st_.iter < cfg_.max_route_iters) {
        if (guard_.over_budget(st_.iter)) break;
        // Rollback point, captured once per outer iteration: every retry
        // of the iteration rolls back to the state it started from.
        if (guard_.active() && ckpt_.iter != st_.iter)
            ckpt_ = {st_.iter, capture()};
        // Durable journal entry at every outer boundary: an outer
        // iteration routes the whole design, so the snapshot cost is
        // noise against the body it fronts.
        if (durable_ != nullptr && durable_->enabled()) {
            st_.cur.inflation = scheme_->snapshot();
            durable_->save(st_);
        }
        recover::crash::maybe_kill("route-mid");
        // Stats entries of a failed attempt are rolled back with it.
        const size_t mark_overflow = stats_.total_overflow.size();
        const size_t mark_inflation = stats_.mean_inflation.size();
        const size_t mark_penalty = stats_.penalty.size();
        const auto fail = [&](recover::FaultKind kind, const char* what) {
            stats_.total_overflow.resize(mark_overflow);
            stats_.mean_inflation.resize(mark_inflation);
            stats_.penalty.resize(mark_penalty);
            st_.osc_window.clear();
            return recover(kind, what);
        };
        try {
            if (iterate()) break;
        } catch (const recover::RecoverableError& e) {
            if (!fail(e.kind(), e.what())) break;
        } catch (const AuditFailure& e) {
            if (!guard_.active()) throw;
            if (!fail(recover::classify_audit_failure(e), e.what())) break;
        }
    }
    finish();
}

void RoutabilityStage::rebuild_router() {
    RouterConfig rc = cfg_.router;
    rc.overflow_penalty = st_.router_overflow_penalty;
    if (st_.router_layer_capacity.size() == rc.layers.size())
        for (size_t i = 0; i < rc.layers.size(); ++i)
            rc.layers[i].capacity = st_.router_layer_capacity[i];
    router_ = std::make_unique<GlobalRouter>(grid_, rc);
}

bool RoutabilityStage::iterate() {
    const int outer = st_.iter;
    // 1. Congestion estimation on current positions -> map (Eq. 3): a full
    //    global route (the paper) or RUDY (router-free).
    int rrr_executed = 0;
    int rrr_stalled = 0;
    if (st_.use_ckpt_cmap && st_.cmap_demand.width() > 0) {
        st_.use_ckpt_cmap = false;
        cmap_ = CongestionMap(grid_, st_.cmap_demand, st_.cmap_capacity);
    } else if (cfg_.use_rudy_congestion) {
        cmap_ = rudy_congestion(d_, grid_, cfg_.router);
    } else {
        const RouteResult rr = router_->route(d_, &route_scratch_);
        cmap_ = rr.congestion;
        rrr_executed = rr.rrr_rounds_executed;
        rrr_stalled = rr.rrr_rounds_stalled;
    }

    // Fault-injection sites (inert unless a matching spec is armed): the
    // site corrupts its own state, detection below must catch it.
    if (guard_.active()) {
        using recover::FaultKind;
        const auto fires = [&](FaultKind kind) {
            return recover::fault::fire(kStage, kind, outer);
        };
        const auto corrupt = [&](auto&& edit) {
            GridF dmd = cmap_.demand();
            edit(dmd);
            cmap_ = CongestionMap(grid_, std::move(dmd), cmap_.capacity());
        };
        if (fires(FaultKind::CorruptedDemand))
            corrupt([](GridF& g) {
                g.at(0, 0) = std::numeric_limits<double>::quiet_NaN();
            });
        if (fires(FaultKind::RouterNoProgress)) {
            // Simulate the livelock symptom: absurd demand that every RRR
            // round failed to improve.
            corrupt([](GridF& g) { grid_scale(g, 1e9); });
            rrr_executed = std::max(rrr_executed, 1);
            rrr_stalled = rrr_executed;
        }
        // Every other iteration sees 64x demand: the overflow window
        // alternates huge/normal until detected.
        if (fires(FaultKind::OverflowOscillation) && outer % 2 == 0)
            corrupt([](GridF& g) { grid_scale(g, 64.0); });
    }

    // Divergence detection: corrupted demand. The auditor throws
    // AuditFailure (classified by the caller); when audits are off the
    // recovery layer runs the same predicate itself.
    audit::check_congestion_map(cmap_);
    if (guard_.active() && !audit_enabled()) {
        std::string msg;
        if (!audit::congestion_map_valid(cmap_, msg))
            throw recover::RecoverableError(
                recover::FaultKind::CorruptedDemand, kStage, msg);
    }

    stats_.total_overflow.push_back(cmap_.total_overflow());
    // Keep the best-routed snapshot under the severity-weighted overflow
    // (the quantity detailed-routing violations track): the stage must
    // never end worse than it started.
    const double severe = cmap_.weighted_overflow();

    // Divergence detection: router livelock — every RRR round stalled
    // while the overflow is beyond anything a healthy run produces.
    if (guard_.active() && rrr_executed > 0 && rrr_stalled == rrr_executed &&
        severe > cfg_.recover.router_livelock_overflow) {
        std::ostringstream oss;
        oss << "all " << rrr_executed
            << " RRR rounds stalled at weighted overflow " << severe;
        throw recover::RecoverableError(recover::FaultKind::RouterNoProgress,
                                        kStage, oss.str());
    }
    // Divergence detection: outer-loop overflow oscillation.
    if (guard_.active()) {
        st_.osc_window.push_back(severe);
        if (overflow_oscillates(st_.osc_window, cfg_.recover.osc_flips,
                                cfg_.recover.osc_amplitude)) {
            std::ostringstream oss;
            oss << "weighted overflow alternated " << cfg_.recover.osc_flips
                << " times (last " << severe << ")";
            throw recover::RecoverableError(
                recover::FaultKind::OverflowOscillation, kStage, oss.str());
        }
    }

    if (severe < st_.best.overflow * (1.0 - cfg_.keep_best_margin))
        keep_best(severe, outer);

    // 3'. Dynamic pin-accessibility density adjustment (Eq. 13-15) is
    //     refreshed first so its charge is known to the budget.
    if (st_.dpa) {
        st_.extra = dynamic_pg_density(rail_area_, cmap_);
        grid_scale(st_.extra, cfg_.dpa_weight);
        obj_.set_extra_density(&st_.extra);
    }

    // 2. Momentum-based (or baseline) cell inflation update, budgeted
    //    (together with the PG charge) against the filler whitespace so the
    //    density stays feasible.
    std::vector<double>& ratios = st_.cur.ratios;
    scheme_->update(d_, cmap_);
    ratios = scheme_->ratios();
    const double extra_area = grid_sum(st_.extra);
    budget_inflation(d_, first_filler_, ratios, cfg_.inflation_budget_frac,
                     extra_area);
    if (guard_.active() &&
        recover::fault::fire(kStage, recover::FaultKind::CorruptedBudget,
                             outer) &&
        !ratios.empty()) {
        ratios[0] = -1.0;
    }
    // Invariant audit: the budgeted ratios must balance — real-cell area
    // growth inside the filler budget, uniform filler shrink.
    if (audit_enabled()) {
        audit::check_inflation_budget(d_, first_filler_, ratios,
                                      cfg_.inflation_budget_frac, extra_area);
    } else if (guard_.active()) {
        for (size_t i = 0; i < ratios.size(); ++i) {
            if (std::isfinite(ratios[i]) && ratios[i] > 0.0) continue;
            std::ostringstream oss;
            oss << "inflation ratio of cell " << i
                << " is invalid: " << ratios[i];
            throw recover::RecoverableError(
                recover::FaultKind::CorruptedBudget, kStage, oss.str());
        }
    }
    {
        double acc = 0.0;
        int n = 0;
        for (int ci : movable_) {
            if (ci >= first_filler_) continue;
            acc += ratios[static_cast<size_t>(ci)];
            ++n;
        }
        stats_.mean_inflation.push_back(n > 0 ? acc / n : 1.0);
    }

    // 4. Congestion potential field for the DC term (the bounding-box
    //    baseline model needs only the map, not the field).
    if (st_.dc) {
        obj_.set_dc_model(cfg_.use_bbox_dc_model ? DcModel::BoundingBox
                                                 : DcModel::NetMoving);
        if (!cfg_.use_bbox_dc_model) field_.build(cmap_);
        obj_.set_congestion(&cmap_,
                            cfg_.use_bbox_dc_model ? nullptr : &field_);
    }

    // 5. Inner Nesterov iterations on Eq. (5).
    const NesterovConfig nes_cfg{st_.initial_step};
    NesterovSolver solver(st_.cur.pos, nes_cfg);
    if (checks_.explosion_fires(outer))
        solver = NesterovSolver(checks_.fling(st_.cur.pos), nes_cfg);
    std::vector<Vec2> grad;
    double penalty = 0.0;
    double attempt_wl = st_.cur.last_wl;
    for (int it = 0; it < cfg_.inner_iters; ++it) {
        const ObjectiveTerms terms =
            obj_.evaluate(d_, movable_, solver.reference(), grad);
        checks_.gradient(grad, it == 0, outer, it);
        checks_.objective(terms.wirelength + terms.density + terms.congestion,
                          terms.wirelength, ckpt_.at.last_wl, it);
        penalty = terms.congestion;
        solver.step(grad, checks_.project());
        // Keep the ePlace lambda_1 schedule only while the density target
        // is not met; once spread, wirelength/congestion lead.
        if (terms.overflow > cfg_.stop_overflow) {
            st_.cur.lambda1 *= st_.lambda1_growth;
            obj_.set_lambda1(st_.cur.lambda1);
        }
        attempt_wl = terms.wirelength;
    }
    // Last line of defense before NaN positions reach the design: scan the
    // solution once (observe-only).
    const std::vector<Vec2>& sol = solver.solution();
    if (guard_.active()) {
        for (size_t i = 0; i < sol.size(); ++i) {
            if (std::isfinite(sol[i].x) && std::isfinite(sol[i].y)) continue;
            std::ostringstream oss;
            oss << "non-finite solution position of slot " << i;
            throw recover::RecoverableError(recover::FaultKind::GradientNaN,
                                            kStage, oss.str());
        }
    }
    st_.cur.pos = sol;
    d_.set_positions(movable_, st_.cur.pos);
    st_.cur.last_wl = attempt_wl;
    // The iteration completed: its map is the new last-good map.
    st_.cmap_demand = cmap_.demand();
    st_.cmap_capacity = cmap_.capacity();
    stats_.penalty.push_back(penalty);
    ++stats_.outer_iters;

    if (cfg_.verbose) {
        RDP_LOG_INFO() << "[route-iter " << outer
                       << "] overflow=" << cmap_.total_overflow()
                       << " C(x,y)=" << penalty
                       << " inflation=" << stats_.mean_inflation.back();
    }

    // 6. Stop when the congestion metric no longer decreases (paper:
    //    "until C(x,y) no longer decreases or the given number of
    //    iterations is reached"). When DC is off the router overflow serves
    //    as the metric.
    const double metric = st_.dc ? penalty : cmap_.weighted_overflow();
    ++st_.iter;
    if (metric < st_.best_metric - 1e-9) {
        st_.best_metric = metric;
        st_.stall = 0;
        return false;
    }
    return ++st_.stall >= cfg_.stop_patience;
}

bool RoutabilityStage::recover(recover::FaultKind kind, const char* what) {
    using recover::FaultKind;
    const int outer = st_.iter;
    if (!guard_.allow_retry(kind, outer, what)) {
        guard_.degrade(kind, outer,
                       "retries exhausted; finishing on the best snapshot");
        return false;
    }
    switch (kind) {
        case FaultKind::RouterNoProgress: {
            // Relax the router capacity model: cheaper overflow and more
            // effective tracks let the negotiation move again.
            st_.router_overflow_penalty *= cfg_.recover.router_relax;
            for (double& c : st_.router_layer_capacity)
                c /= cfg_.recover.router_relax;
            rebuild_router();
            std::ostringstream oss;
            oss << "overflow penalty -> " << st_.router_overflow_penalty
                << ", capacity factors x" << 1.0 / cfg_.recover.router_relax;
            guard_.record(kind, outer, "relax-router", oss.str());
            break;
        }
        case FaultKind::CorruptedDemand: {
            // First retry re-routes (transient corruption); further ones
            // fall back to the last-good map.
            if (guard_.retries_used() > 1 && st_.cmap_demand.width() > 0) {
                st_.use_ckpt_cmap = true;
                guard_.record(kind, outer, "fallback-demand",
                              "using the last-good congestion map of"
                              " iteration " + std::to_string(outer - 1));
            } else {
                guard_.record(kind, outer, "reroute",
                              "re-running congestion estimation");
            }
            break;
        }
        case FaultKind::CorruptedBudget: {
            // Rollback of the inflation bookkeeping only.
            if (ckpt_.valid()) {
                st_.cur.ratios = ckpt_.at.ratios;
                scheme_->restore(ckpt_.at.inflation);
            }
            guard_.record(kind, outer, "reset-inflation",
                          "restored checkpoint inflation bookkeeping");
            break;
        }
        default: {
            // GradientNaN / HpwlExplosion / OverflowOscillation /
            // AuditViolation: roll back and damp the schedule that drove
            // the divergence.
            if (ckpt_.valid()) {
                // Rollback: positions, lambda_1, ratios, inflation history.
                st_.cur.pos = ckpt_.at.pos;
                d_.set_positions(movable_, st_.cur.pos);
                st_.cur.lambda1 = ckpt_.at.lambda1;
                obj_.set_lambda1(st_.cur.lambda1);
                st_.cur.ratios = ckpt_.at.ratios;
                scheme_->restore(ckpt_.at.inflation);
            }
            st_.initial_step *= cfg_.recover.step_shrink;
            st_.lambda1_growth = 1.0 + (st_.lambda1_growth - 1.0) *
                                           cfg_.recover.lambda_tighten;
            ++stats_.recovery.rollbacks;
            std::ostringstream oss;
            oss << "restored checkpoint of outer iteration " << ckpt_.iter
                << "; step x" << cfg_.recover.step_shrink
                << ", lambda1 growth -> " << st_.lambda1_growth;
            guard_.record(kind, outer, "rollback", oss.str());
            if (guard_.retries_used() >= cfg_.recover.max_retries &&
                (st_.dc || st_.dpa)) {
                // Last rung: skip the optional congestion-directed terms
                // for the rest of the stage.
                st_.dc = false;
                st_.dpa = false;
                obj_.set_congestion(nullptr, nullptr);
                st_.extra =
                    static_pg_density(rail_area_, cfg_.static_pg_weight);
                obj_.set_extra_density(&st_.extra);
                guard_.record(kind, outer, "skip-optional",
                              "disabled net-moving DC and DPA for the rest"
                              " of the stage");
            }
            break;
        }
    }
    return true;
}

void RoutabilityStage::finish() {
    // Restore positions together with the inflation bookkeeping they were
    // scored with (ratios, extra charge, scheme history), so downstream
    // consumers never see a mixed state.
    const double severe =
        cfg_.use_rudy_congestion
            ? rudy_congestion(d_, grid_, cfg_.router).weighted_overflow()
            : router_->route(d_, &route_scratch_)
                  .congestion.weighted_overflow();
    if (severe < st_.best.overflow * (1.0 - cfg_.keep_best_margin))
        keep_best(severe, stats_.outer_iters);
    const recover::PipelineSnapshot::Best& best = st_.best;
    d_.set_positions(movable_, best.at.pos);
    st_.cur.ratios = best.at.ratios;
    scheme_->restore(best.at.inflation);
    stats_.best_iter = best.iter;
    stats_.final_ratios = best.at.ratios;
    stats_.final_extra_area = best.extra_area;
    // Re-audit the restored pairing: the bookkeeping must balance for the
    // snapshot exactly as it did when the snapshot was scored.
    if (audit_enabled())
        audit::check_inflation_budget(d_, first_filler_, st_.cur.ratios,
                                      cfg_.inflation_budget_frac,
                                      best.extra_area);
    // Detach state this stage owns before it goes out of scope.
    obj_.set_congestion(nullptr, nullptr);
    obj_.set_extra_density(nullptr);
    obj_.set_inflation(nullptr);
}

}  // namespace

RoutabilityStats run_routability_stage(
    Design& d, const std::vector<int>& movable, PlacementObjective& obj,
    const PlacerConfig& cfg, const std::vector<PGRail>& selected_rails,
    int first_filler, recover::DurableCheckpointer* durable,
    const recover::PipelineSnapshot* resume) {
    if (resume != nullptr && resume->stage != recover::kStageRoutability)
        resume = nullptr;
    const AuditStageScope audit_scope(kStage);
    RoutabilityStats stats;
    RoutabilityStage(d, movable, obj, cfg, selected_rails, first_filler,
                     durable, stats)
        .run(resume);
    return stats;
}

}  // namespace rdp
