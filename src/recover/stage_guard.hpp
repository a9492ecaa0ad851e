#pragma once
// StageGuard — the per-stage half of the fault-tolerant pipeline runner
// (DESIGN.md §11). One guard wraps one pipeline stage (wirelength GP,
// routability GP, legalization) and owns:
//
//   * the stage wall-clock budget (RecoverConfig::stage_budget_ms):
//     over_budget() turns a livelocked stage into a graceful stop on its
//     best snapshot instead of a hang;
//   * the bounded retry ledger: allow_retry() admits at most
//     RecoverConfig::max_retries recovery attempts per stage, then the
//     stage degrades;
//   * the recovery log: every attempt and degradation is recorded into the
//     run's RecoveryReport.
//
// The guard never touches placement state itself — rollback and knob
// adjustment stay in the stage code, next to the state they restore. It
// reads only its RecoverConfig: GlobalPlacer::place() has already applied
// the RDP_RECOVER / RDP_STAGE_BUDGET_MS environment overrides to it.

#include <chrono>
#include <string>

#include "recover/recover.hpp"

namespace rdp::recover {

class StageGuard {
public:
    /// `report` may be null (events are then only counted, not kept).
    StageGuard(const char* stage, const RecoverConfig& cfg,
               RecoveryReport* report);

    const char* stage() const { return stage_; }
    /// Recovery active = RecoverConfig::enabled.
    bool active() const { return cfg_.enabled; }

    /// True when the stage exhausted its wall-clock budget (or a
    /// stage-timeout fault fired for `iter`); records the event once.
    /// Always false when the guard is inactive or the budget unlimited.
    bool over_budget(int iter);

    /// Ask to recover from `kind` at stage-iteration `iter`. Returns true
    /// (and logs the attempt) while retries remain; false once the stage
    /// must degrade. Inactive guards never grant retries.
    bool allow_retry(FaultKind kind, int iter, const std::string& detail);

    /// Record a recovery-ladder action taken by the stage code
    /// ("rollback", "reroute", "relax-router", "reset-inflation", ...).
    void record(FaultKind kind, int iter, const char* action,
                const std::string& detail);
    /// Record that the stage finished degraded (best snapshot / skipped).
    void degrade(FaultKind kind, int iter, const std::string& detail);

    int retries_used() const { return retries_; }

private:
    const char* stage_;
    const RecoverConfig& cfg_;
    RecoveryReport* report_;
    bool timed_out_ = false;
    int retries_ = 0;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace rdp::recover
