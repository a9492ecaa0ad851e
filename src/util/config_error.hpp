#pragma once
// Typed rejection of a configuration value outside its domain. The public
// entry points (GlobalPlacer::place, evaluate_placement) validate their
// config before any work, so a bad value fails there with a message naming
// the field instead of crashing or silently misbehaving deep in a kernel.

#include <bit>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace rdp {

class ConfigError : public std::invalid_argument {
public:
    ConfigError(std::string field, const std::string& message)
        : std::invalid_argument(field + ": " + message),
          field_(std::move(field)) {}

    /// Dotted path of the offending field, e.g. "router.maze.window_margin".
    const std::string& field() const { return field_; }

private:
    std::string field_;
};

/// Throws ConfigError unless value >= min (NaN fails too).
inline void require_at_least(const std::string& field, double value,
                             double min) {
    if (value >= min) return;
    std::ostringstream msg;
    msg << "must be >= " << min << ", got " << value;
    throw ConfigError(field, msg.str());
}

/// Throws ConfigError unless value <= max (NaN fails too).
inline void require_at_most(const std::string& field, double value,
                            double max) {
    if (value <= max) return;
    std::ostringstream msg;
    msg << "must be <= " << max << ", got " << value;
    throw ConfigError(field, msg.str());
}

/// Throws ConfigError unless value is a power of two (1, 2, 4, ...): for a
/// grid size the spectral kernels need as given.
inline void require_power_of_two(const std::string& field, int value) {
    if (value > 0 && std::has_single_bit(static_cast<unsigned>(value))) return;
    throw ConfigError(field,
                      "must be a power of two, got " + std::to_string(value));
}

/// Throws ConfigError unless value > 0 (NaN fails too): for a value that
/// divides, or bounds a divisor from below.
inline void require_positive(const std::string& field, double value) {
    if (value > 0.0) return;
    std::ostringstream msg;
    msg << "must be > 0, got " << value;
    throw ConfigError(field, msg.str());
}

}  // namespace rdp
