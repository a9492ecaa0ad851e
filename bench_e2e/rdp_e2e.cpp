// End-to-end benchmark child. One process does one job and prints one
// JSON object on its last stdout line:
//
//   rdp_e2e gen --design=NAME --scale=X --seed=N --out=PATH
//       generate a synthetic-suite design (benchgen) and write it to PATH;
//   rdp_e2e setup --input=PATH
//       time read_design_file + validate;
//   rdp_e2e rep --input=PATH --bins=N [--rudy]
//       one repetition through the stable public API: read_design_file +
//       validate, then GlobalPlacer::place and evaluate_placement, timed.
//
// run.py starts one child per repetition, so plan caches and page faults
// start cold in every sample, exactly as for a place_file user.
//
// rdp_e2e_traced is this file linked together with layer_wrap.cpp under
// -Wl,--wrap; layer_wrap.cpp then defines layer_metrics_json() and the
// "layers" object joins the output.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/ispd_suite.hpp"
#include "db/netlist_io.hpp"
#include "eval/route_metrics.hpp"
#include "legal/tetris.hpp"
#include "place/global_placer.hpp"
#include "recover/durable_checkpoint.hpp"
#include "util/simd.hpp"

// Defined only in the traced build (layer_wrap.cpp).
[[gnu::weak]] std::string layer_metrics_json();

namespace {

using namespace rdp;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process image in MiB. Not ru_maxrss: Linux
/// carries that across execve, so a child would report its launcher's peak
/// whenever that is larger. VmHWM belongs to the current address space.
double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string key;
    double kib = 0.0;
    while (status >> key)
        if (key == "VmHWM:" && status >> kib) return kib / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Value of `--key=value` in argv, or `fallback`.
std::string flag(int argc, char** argv, const std::string& key,
                 const std::string& fallback = "") {
    const std::string prefix = "--" + key + "=";
    for (int i = 2; i < argc; ++i)
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
            return argv[i] + prefix.size();
    return fallback;
}

bool has_flag(int argc, char** argv, const std::string& key) {
    for (int i = 2; i < argc; ++i)
        if (argv[i] == "--" + key) return true;
    return false;
}

/// FNV-1a-64 over the final positions and the routed metrics: equal
/// digests mean bitwise-identical results.
uint64_t result_digest(const Design& placed, const EvalMetrics& m) {
    uint64_t h = recover::kFnvOffset;
    for (const Cell& c : placed.cells) {
        h = recover::fnv1a64(&c.pos.x, sizeof c.pos.x, h);
        h = recover::fnv1a64(&c.pos.y, sizeof c.pos.y, h);
    }
    h = recover::fnv1a64(&m.drwl, sizeof m.drwl, h);
    h = recover::fnv1a64(&m.vias, sizeof m.vias, h);
    return recover::fnv1a64(&m.drvs, sizeof m.drvs, h);
}

int cmd_gen(int argc, char** argv) {
    const std::string out = flag(argc, argv, "out");
    if (out.empty()) throw std::invalid_argument("gen needs --out=PATH");
    SuiteEntry e = suite_entry(flag(argc, argv, "design"),
                               std::stod(flag(argc, argv, "scale", "1")));
    e.gen.seed = std::stoull(flag(argc, argv, "seed", std::to_string(e.gen.seed)));
    write_design_file(generate_circuit(e.gen), out);
    std::cout << "{\"cells\": " << e.gen.num_cells
              << ", \"grid_bins\": " << e.grid_bins << "}\n";
    return 0;
}

/// Reads and validates --input into `design`; returns the seconds taken.
double timed_setup(int argc, char** argv, Design& design) {
    const std::string input = flag(argc, argv, "input");
    if (input.empty()) throw std::invalid_argument("need --input=PATH");
    const auto t0 = Clock::now();
    design = read_design_file(input);
    const std::vector<std::string> problems = design.validate();
    const double setup_s = since(t0);
    if (!problems.empty())
        throw std::runtime_error("invalid design: " + problems.front());
    return setup_s;
}

int cmd_setup(int argc, char** argv) {
    Design design;
    const double setup_s = timed_setup(argc, argv, design);
    std::cout.precision(17);
    std::cout << "{\"setup_s\": " << setup_s << "}\n";
    return 0;
}

int cmd_rep(int argc, char** argv) {
    const int bins = std::stoi(flag(argc, argv, "bins", "64"));
    Design design;
    timed_setup(argc, argv, design);

    // Default settings (Ours mode, early stop included), as a place_file
    // user runs them.
    PlacerConfig cfg;
    cfg.grid_bins = bins;
    cfg.use_rudy_congestion = has_flag(argc, argv, "rudy");

    const double cpu0 = process_cpu_seconds();
    const auto tp = Clock::now();
    const PlaceResult res = GlobalPlacer(cfg).place(design);
    const double place_s = since(tp);
    const double place_cpu_s = process_cpu_seconds() - cpu0;

    // Evaluation at twice the placement resolution, as in the Table I
    // harness (bench/table1_main.cpp).
    EvalConfig ec;
    ec.grid_bins = bins * 2;
    const auto te = Clock::now();
    const EvalMetrics m = evaluate_placement(res.placed, ec);
    const double eval_s = since(te);

    std::ostringstream os;
    os.precision(17);
    os << "{\"place_s\": " << place_s
       << ", \"eval_s\": " << eval_s
       << ", \"place_cpu_s\": " << place_cpu_s
       << ", \"peak_rss_mb\": " << peak_rss_mib()
       << ", \"hpwl\": " << res.hpwl_final << ", \"drwl\": " << m.drwl
       << ", \"vias\": " << m.vias << ", \"drvs\": " << m.drvs
       << ", \"cells_failed\": " << res.legal_stats.cells_failed
       << ", \"legal\": " << (is_legal(res.placed) ? "true" : "false")
       << ", \"recovered\": "
       << (res.recovery.recovered_any() ? "true" : "false")
       << ", \"digest\": \"" << std::hex << result_digest(res.placed, m)
       << std::dec << "\", \"simd\": \"" << simd::backend_name() << "\"";
    if (&layer_metrics_json != nullptr)
        os << ", \"layers\": " << layer_metrics_json();
    os << "}";
    std::cout << os.str() << "\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string cmd = argc > 1 ? argv[1] : "";
    try {
        if (cmd == "gen") return cmd_gen(argc, argv);
        if (cmd == "setup") return cmd_setup(argc, argv);
        if (cmd == "rep") return cmd_rep(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "rdp_e2e " << cmd << ": " << e.what() << "\n";
        return 1;
    }
    std::cerr << "usage: rdp_e2e gen --design=NAME --scale=X --seed=N "
                 "--out=PATH\n"
                 "       rdp_e2e setup --input=PATH\n"
                 "       rdp_e2e rep --input=PATH --bins=N [--rudy]\n";
    return 2;
}
