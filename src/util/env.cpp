#include "util/env.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <set>

namespace rdp::env {

namespace {

std::string trimmed(const std::string& s) {
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

std::string lowered(std::string s) {
    for (char& c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

// Direct to stderr rather than RDP_LOG: env knobs are read inside static
// initializers (log level itself among them), where the logger may not be
// configured yet. One warning per variable per process: the run knobs
// (RDP_RECOVER, RDP_CHECKPOINT_EVERY, ...) are read at every
// GlobalPlacer::place() call, and a misspelled value in a process that
// places many designs must not flood the log.
void warn(const char* name, const std::string& value,
          const std::string& expected) {
    static std::mutex mu;
    static std::set<std::string> warned;
    {
        const std::lock_guard<std::mutex> lock(mu);
        if (!warned.insert(name).second) return;
    }
    std::cerr << "[W] ignoring invalid " << name << "='" << value
              << "' (expected " << expected << "); using the default\n";
}

}  // namespace

std::optional<long long> parse_int(const std::string& text) {
    const std::string t = trimmed(text);
    if (t.empty()) return std::nullopt;
    size_t i = (t[0] == '+' || t[0] == '-') ? 1 : 0;
    if (i == t.size()) return std::nullopt;
    for (size_t k = i; k < t.size(); ++k)
        if (!std::isdigit(static_cast<unsigned char>(t[k])))
            return std::nullopt;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(t.c_str(), &end, 10);
    if (errno == ERANGE || end != t.c_str() + t.size()) return std::nullopt;
    return v;
}

std::optional<double> parse_double(const std::string& text) {
    const std::string t = trimmed(text);
    if (t.empty()) return std::nullopt;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (errno == ERANGE || end != t.c_str() + t.size()) return std::nullopt;
    if (!std::isfinite(v)) return std::nullopt;
    return v;
}

std::optional<bool> parse_flag(const std::string& text) {
    const std::string t = lowered(trimmed(text));
    if (t == "1" || t == "on" || t == "true" || t == "yes") return true;
    if (t == "0" || t == "off" || t == "false" || t == "no") return false;
    return std::nullopt;
}

std::optional<std::string> raw(const char* name) {
    const char* v = std::getenv(name);
    if (v == nullptr) return std::nullopt;
    return std::string(v);
}

long long int_or(const char* name, long long def, long long min_v,
                 long long max_v) {
    const auto text = raw(name);
    if (!text) return def;
    const auto v = parse_int(*text);
    if (!v || *v < min_v || *v > max_v) {
        warn(name, *text,
             "an integer in [" + std::to_string(min_v) + ", " +
                 std::to_string(max_v) + "]");
        return def;
    }
    return *v;
}

double double_or(const char* name, double def, double min_v, double max_v) {
    const auto text = raw(name);
    if (!text) return def;
    const auto v = parse_double(*text);
    if (!v || *v < min_v || *v > max_v) {
        warn(name, *text,
             "a number in [" + std::to_string(min_v) + ", " +
                 std::to_string(max_v) + "]");
        return def;
    }
    return *v;
}

bool flag_or(const char* name, bool def) {
    const auto text = raw(name);
    if (!text) return def;
    const auto v = parse_flag(*text);
    if (!v) {
        warn(name, *text, "one of 0/1, on/off, true/false, yes/no");
        return def;
    }
    return *v;
}

size_t choice_or(const char* name, size_t def,
                 std::initializer_list<const char*> options) {
    const auto text = raw(name);
    if (!text) return def;
    const std::string t = lowered(trimmed(*text));
    size_t i = 0;
    for (const char* opt : options) {
        if (t == opt) return i;
        ++i;
    }
    std::string expected = "one of ";
    i = 0;
    for (const char* opt : options)
        expected += (i++ == 0 ? std::string() : std::string("|")) + opt;
    warn(name, *text, expected);
    return def;
}

}  // namespace rdp::env
