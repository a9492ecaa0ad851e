#include "recover/recover.hpp"

#include <array>
#include <utility>

#include "util/check.hpp"

namespace rdp::recover {

namespace {

constexpr std::array<std::pair<FaultKind, const char*>, 8> kKindNames = {{
    {FaultKind::GradientNaN, "gradient-nan"},
    {FaultKind::HpwlExplosion, "hpwl-explosion"},
    {FaultKind::OverflowOscillation, "overflow-oscillation"},
    {FaultKind::RouterNoProgress, "router-no-progress"},
    {FaultKind::StageTimeout, "stage-timeout"},
    {FaultKind::CorruptedDemand, "corrupted-demand"},
    {FaultKind::CorruptedBudget, "corrupted-budget"},
    {FaultKind::AuditViolation, "audit-violation"},
}};

}  // namespace

const char* fault_kind_name(FaultKind k) {
    for (const auto& [kind, name] : kKindNames)
        if (kind == k) return name;
    return "unknown";
}

bool parse_fault_kind(const std::string& name, FaultKind& out) {
    for (const auto& [kind, kname] : kKindNames) {
        if (name == kname) {
            out = kind;
            return true;
        }
    }
    return false;
}

RecoverableError::RecoverableError(FaultKind kind, std::string stage,
                                   const std::string& message)
    : std::runtime_error("[recover] stage=" + stage +
                         " fault=" + fault_kind_name(kind) + ": " + message),
      kind_(kind),
      stage_(std::move(stage)) {}

FaultKind classify_audit_failure(const AuditFailure& failure) {
    const std::string& inv = failure.invariant();
    if (inv == "finite-gradients") return FaultKind::GradientNaN;
    if (inv == "router-accounting" || inv == "congestion-finite")
        return FaultKind::CorruptedDemand;
    if (inv == "inflation-budget") return FaultKind::CorruptedBudget;
    return FaultKind::AuditViolation;
}

int RecoveryReport::count(FaultKind k) const {
    int n = 0;
    for (const RecoveryEvent& e : events)
        if (e.kind == k) ++n;
    return n;
}

}  // namespace rdp::recover
