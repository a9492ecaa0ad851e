// Non-firing fixture for rdp-raw-getenv: every knob goes through the
// strict rdp::env layer (which is the one file allowed to call getenv).
namespace rdp::env {
long long int_or(const char* name, long long def, long long min_v,
                 long long max_v);
bool flag_or(const char* name, bool def);
}  // namespace rdp::env

int threads_knob() {
    return static_cast<int>(rdp::env::int_or("RDP_THREADS", 8, 1, 1024));
}

bool audit_knob() {
    // the string "getenv" in prose must not fire
    return rdp::env::flag_or("RDP_AUDIT", true);
}
