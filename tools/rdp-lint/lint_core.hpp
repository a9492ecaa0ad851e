#pragma once
// The rdp-* determinism-contract checks (DESIGN.md §15): a
// comment/string-aware token scanner with no dependency beyond the C++
// standard library, so the lint gate runs — and fails the build on a
// violation — on every host the project builds on.
//
// The eight rules:
//
//   rdp-raw-exp             std::exp / std::fma (and friends) outside
//                           src/util/simd.* — everything else must go
//                           through simd::stable_exp or the RDP_SIMD_FMA-
//                           gated mul_add helpers, or SIMD-vs-scalar and
//                           FMA-vs-not builds stop being bitwise identical.
//   rdp-unordered-iteration iteration over std::unordered_{map,set,...}
//                           anywhere in src/ — hash-order is not a
//                           deterministic order; iterating one feeds
//                           order-dependent FP accumulation.
//   rdp-raw-thread          std::thread / std::async / OpenMP outside
//                           src/util/parallel.* — ad-hoc threads bypass
//                           the deterministic chunk-plan layer (§9).
//   rdp-raw-getenv          std::getenv outside src/util/env.cpp — every
//                           knob must use the strict util/env parser.
//   rdp-env-reader          env::raw / int_or / double_or / flag_or /
//                           choice_or outside the six files that read the
//                           environment (global_placer, parallel, log,
//                           check, fault_injection, kill_points) — a run
//                           knob is resolved once in GlobalPlacer::place()
//                           and the stages read the resolved PlacerConfig.
//   rdp-raw-file-write      std::ofstream / std::fstream / fopen outside
//                           src/util/io_atomic.* — files must be
//                           published via io::atomic_write (temp + fsync
//                           + rename, DESIGN.md §16) so a crash never
//                           leaves a torn file behind.
//   rdp-hot-loop-alloc      heap allocation (new/malloc/vector or string
//                           growth) inside the kernel headers wa_kernel,
//                           splat_kernel, fft_kernel, dct_kernel — the
//                           kernels run inside parallel regions on
//                           caller-owned scratch; allocating there is a
//                           latency and determinism hazard.
//   rdp-thread-local        thread_local outside src/util/parallel.cpp —
//                           scratch is owned by its caller (a router
//                           slot, a workspace), so its size is bounded and
//                           freed with the owner (DESIGN.md §17, Memory).

#include <string>
#include <string_view>
#include <vector>

namespace rdp::lint {

struct Finding {
    std::string check;    // e.g. "rdp-raw-exp"
    std::string file;     // path as given by the caller
    int line = 0;         // 1-based
    std::string message;  // human-readable violation description
};

/// Names of every implemented check, in a fixed order.
const std::vector<std::string>& all_checks();

/// Replace comments, string literals, and character literals with spaces,
/// preserving the line structure (newlines survive) so findings keep
/// correct line numbers. Handles //, /* */, "...", '...', and R"(...)"
/// raw strings; digit separators (1'000'000) are not treated as literals.
std::string strip_comments_and_strings(const std::string& source);

/// Run one named check over `content` unconditionally (no path-based
/// applicability rules) — used by the fixture tests. `path` only labels
/// the findings. Unknown check names yield no findings.
std::vector<Finding> run_check(std::string_view check, const std::string& path,
                               const std::string& content);

/// Run every check whose path rules say it applies to `path`: the exp/
/// thread/getenv/file-write checks skip their own implementation files, the
/// env-reader check skips the files allowed to read the environment, the
/// hot-loop-alloc check fires only on the four kernel headers, and the
/// thread-local check skips util/parallel.cpp. This is
/// what the rdp_lint CLI and the full-tree regression test use.
std::vector<Finding> run_file(const std::string& path,
                              const std::string& content);

}  // namespace rdp::lint
