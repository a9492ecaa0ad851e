// Firing fixture for rdp-env-reader: a stage reads its own knobs from the
// environment instead of the configuration GlobalPlacer::place() resolved.
#include <optional>
#include <string>

namespace rdp::env {
std::optional<std::string> raw(const char* name);
long long int_or(const char* name, long long def, long long min_v,
                 long long max_v);
}  // namespace rdp::env

int stage_budget() {
    return static_cast<int>(
        rdp::env::int_or("RDP_STAGE_BUDGET_MS", 0, 0, 1000));  // finding
}

bool resume_requested() {
    using namespace rdp;
    return env::raw("RDP_RESUME").has_value();  // finding
}
