// Non-firing fixture for rdp-env-reader: the stage reads the resolved
// configuration; the pure env::parse_* helpers and unrelated functions
// that share a reader's name are not environment reads.
#include <optional>
#include <string>

namespace rdp::env {
std::optional<long long> parse_int(const std::string& text);
}  // namespace rdp::env

struct RecoverConfig {
    double stage_budget_ms = 0.0;
};

struct Buffer {
    const char* raw() const { return data; }
    const char* data = "";
};

double stage_budget(const RecoverConfig& cfg) { return cfg.stage_budget_ms; }

int parse_flag_value(const std::string& text) {
    // env::int_or("RDP_X", ...) in a comment must not fire
    const auto v = rdp::env::parse_int(text);
    return v ? static_cast<int>(*v) : 0;
}

const char* bytes(const Buffer& b) { return b.raw(); }
