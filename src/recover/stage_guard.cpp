#include "recover/stage_guard.hpp"

#include "recover/fault_injection.hpp"
#include "util/log.hpp"

namespace rdp::recover {

StageGuard::StageGuard(const char* stage, const RecoverConfig& cfg,
                       RecoveryReport* report)
    : stage_(stage),
      cfg_(cfg),
      report_(report),
      start_(std::chrono::steady_clock::now()) {}

bool StageGuard::over_budget(int iter) {
    if (!active() || timed_out_) return timed_out_;
    const bool forced =
        fault::fire(stage_, FaultKind::StageTimeout, iter);
    bool expired = forced;
    if (!expired && cfg_.stage_budget_ms > 0.0) {
        const double elapsed_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start_)
                .count();
        expired = elapsed_ms > cfg_.stage_budget_ms;
    }
    if (expired) {
        timed_out_ = true;
        degrade(FaultKind::StageTimeout, iter,
                forced ? "injected stage timeout"
                       : "wall-clock budget of " +
                             std::to_string(cfg_.stage_budget_ms) +
                             " ms exhausted");
    }
    return expired;
}

bool StageGuard::allow_retry(FaultKind kind, int iter,
                             const std::string& detail) {
    if (!active()) return false;
    if (retries_ >= cfg_.max_retries) return false;
    ++retries_;
    record(kind, iter, "retry", detail);
    return true;
}

void StageGuard::record(FaultKind kind, int iter, const char* action,
                        const std::string& detail) {
    RDP_LOG_WARN() << "[recover] stage=" << stage_
                   << " fault=" << fault_kind_name(kind) << " iter=" << iter
                   << " action=" << action << ": " << detail;
    if (report_ == nullptr) return;
    report_->events.push_back({stage_, kind, action, detail, iter});
}

void StageGuard::degrade(FaultKind kind, int iter,
                         const std::string& detail) {
    record(kind, iter, "degrade", detail);
    if (report_ != nullptr) ++report_->degraded_stages;
}

}  // namespace rdp::recover
