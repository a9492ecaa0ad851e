// File-based placement driver: read a design from the bookshelf-lite text
// format, place it with a chosen mode, write the placed design back, and
// print the quality metrics. The closest thing in this repo to a
// standalone placer binary.
//
//   ./examples/place_file <input> [output] [--mode=wl|route|ours]
//                         [--bins=N] [--seed=N] [--no-mci] [--no-dc]
//                         [--no-dpa] [--multi-pin-moving]
//                         [--budget-ms=N] [--no-recover]
//                         [--checkpoint-dir=PATH] [--checkpoint-every=N]
//                         [--resume[=auto|PATH]] [--wl-iters=N]
//                         [--route-iters=N] [--inner-iters=N] [--no-eval]
//                         [--rudy]
//
// --rudy estimates congestion in the placement loop with RUDY + PinRUDY
// instead of the global router (PlacerConfig::use_rudy_congestion).
//
// --checkpoint-dir enables the durable checkpoint journal (DESIGN.md §16)
// and --resume continues a killed run from it; the resumed run finishes
// bitwise identical to the uninterrupted one. The RDP_CHECKPOINT_DIR /
// RDP_CHECKPOINT_EVERY / RDP_RESUME environment knobs override the flags;
// GlobalPlacer::place() reads them once, when it starts.
//
// A malformed or out-of-range numeric flag value prints the usage line and
// exits with status 2 before anything is read or written.
//
// With no arguments, generates a demo design, saves it to
// /tmp/rdplace_demo.txt, and runs on that file.

#include <algorithm>
#include <climits>
#include <cstring>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>

#include "benchgen/generator.hpp"
#include "db/design_stats.hpp"
#include "db/netlist_io.hpp"
#include "eval/route_metrics.hpp"
#include "fft/fft.hpp"
#include "place/global_placer.hpp"
#include "util/env.hpp"

namespace {

constexpr const char* kUsage =
    "usage: place_file <input> [output] [--mode=wl|route|ours] [--bins=N]\n"
    "       [--seed=N] [--no-mci] [--no-dc] [--no-dpa] [--multi-pin-moving]\n"
    "       [--budget-ms=N] [--no-recover] [--checkpoint-dir=PATH]\n"
    "       [--checkpoint-every=N] [--resume[=auto|PATH]] [--wl-iters=N]\n"
    "       [--route-iters=N] [--inner-iters=N] [--no-eval] [--rudy]\n";

/// Value of `--name=<integer>` when `arg` is that flag and the integer lies
/// in [lo, hi]; nullopt for a malformed or out-of-range value.
std::optional<long long> int_value(const std::string& arg, long long lo,
                                   long long hi) {
    const auto v = rdp::env::parse_int(arg.substr(arg.find('=') + 1));
    if (!v || *v < lo || *v > hi) return std::nullopt;
    return v;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace rdp;

    std::string input_path;
    std::string output_path;
    PlacerConfig cfg;
    cfg.mode = PlacerMode::Ours;
    int bins = 0;
    bool run_eval = true;

    // Integer flags: prefix, accepted range, destination.
    struct IntFlag {
        const char* prefix;
        long long lo, hi;
        int* out;
    };
    const IntFlag int_flags[] = {
        {"--bins=", 0, 4096, &bins},
        {"--checkpoint-every=", 1, 1 << 20, &cfg.durable.every},
        {"--wl-iters=", 0, 1 << 20, &cfg.max_wl_iters},
        {"--route-iters=", 0, 1 << 20, &cfg.max_route_iters},
        {"--inner-iters=", 0, 1 << 20, &cfg.inner_iters},
    };
    const auto bad_value = [](const std::string& arg) {
        std::cerr << "bad value in " << arg << "\n" << kUsage;
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const IntFlag* f = std::find_if(
            std::begin(int_flags), std::end(int_flags),
            [&](const IntFlag& flag) { return arg.rfind(flag.prefix, 0) == 0; });
        if (f != std::end(int_flags)) {
            const auto v = int_value(arg, f->lo, f->hi);
            if (!v) return bad_value(arg);
            *f->out = static_cast<int>(*v);
        } else if (arg.rfind("--mode=", 0) == 0) {
            const std::string m = arg.substr(7);
            if (m == "wl") cfg.mode = PlacerMode::WirelengthOnly;
            else if (m == "route") cfg.mode = PlacerMode::RouteBaseline;
            else if (m == "ours") cfg.mode = PlacerMode::Ours;
            else {
                std::cerr << "unknown mode " << m << "\n";
                return 2;
            }
        } else if (arg.rfind("--seed=", 0) == 0) {
            const auto v = int_value(arg, 0, LLONG_MAX);
            if (!v) return bad_value(arg);
            cfg.seed = static_cast<uint64_t>(*v);
        } else if (arg == "--no-mci") {
            cfg.enable_mci = false;
        } else if (arg == "--no-dc") {
            cfg.enable_dc = false;
        } else if (arg == "--no-dpa") {
            cfg.enable_dpa = false;
        } else if (arg == "--rudy") {
            cfg.use_rudy_congestion = true;
        } else if (arg == "--multi-pin-moving") {
            cfg.netmove.move_multi_pin_edges = true;  // paper extension
        } else if (arg.rfind("--budget-ms=", 0) == 0) {
            const auto v = env::parse_double(arg.substr(12));
            if (!v || *v < 0.0) return bad_value(arg);
            cfg.recover.stage_budget_ms = *v;
        } else if (arg == "--no-recover") {
            cfg.recover.enabled = false;
        } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
            cfg.durable.dir = arg.substr(17);
        } else if (arg == "--resume" || arg.rfind("--resume=", 0) == 0) {
            cfg.durable.resume = arg.size() > 9 ? arg.substr(9) : "auto";
        } else if (arg == "--no-eval") {
            run_eval = false;
        } else if (input_path.empty()) {
            input_path = arg;
        } else if (output_path.empty()) {
            output_path = arg;
        } else {
            std::cerr << "unexpected argument " << arg << "\n";
            return 2;
        }
    }

    if (input_path.empty()) {
        input_path = "/tmp/rdplace_demo.txt";
        std::cout << "no input given: generating a demo design at "
                  << input_path << "\n";
        GeneratorConfig gen;
        gen.name = "demo";
        gen.num_cells = 2000;
        gen.num_macros = 3;
        gen.utilization = 0.75;
        write_design_file(generate_circuit(gen), input_path);
    }
    if (output_path.empty()) output_path = input_path + ".placed";

    Design design;
    try {
        design = read_design_file(input_path);
    } catch (const std::exception& e) {
        std::cerr << "failed to read " << input_path << ": " << e.what()
                  << "\n";
        return 1;
    }
    const auto problems = design.validate();
    if (!problems.empty()) {
        std::cerr << "design has " << problems.size()
                  << " consistency problems; first: " << problems[0] << "\n";
        return 1;
    }
    std::cout << "read " << input_path << ": " << compute_stats(design)
              << "\n";

    // Grid: explicit, or sized so a bin holds roughly one cell.
    if (bins == 0) {
        int movable = static_cast<int>(design.movable_cells().size());
        bins = std::clamp(next_pow2(static_cast<int>(std::sqrt(
                              std::max(movable, 1)))),
                          16, 256);
    }
    cfg.grid_bins = bins;
    std::cout << "placing (mode "
              << (cfg.mode == PlacerMode::WirelengthOnly ? "wirelength-only"
                  : cfg.mode == PlacerMode::RouteBaseline
                      ? "route-baseline"
                      : "ours")
              << ", grid " << bins << "x" << bins << ")...\n";

    const PlaceResult res = GlobalPlacer(cfg).place(design);
    std::cout << "placed in " << res.place_seconds << " s: HPWL "
              << res.hpwl_final << ", " << res.wl_iters
              << " wirelength iters + " << res.route_outer_iters
              << " routability iters\n";
    if (res.recovery.recovered_any()) {
        std::cout << "recovery: " << res.recovery.events.size()
                  << " events, " << res.recovery.rollbacks << " rollbacks, "
                  << res.recovery.degraded_stages << " degraded stages\n";
        for (const auto& e : res.recovery.events)
            std::cout << "  [" << e.stage << "] iter " << e.iter << " "
                      << recover::fault_kind_name(e.kind) << " -> "
                      << e.action << " (" << e.detail << ")\n";
    }

    if (run_eval) {
        const EvalMetrics m = evaluate_placement(res.placed);
        std::cout << "routed: DRWL " << m.drwl << ", #vias " << m.vias
                  << ", #DRVs " << m.drvs << "\n";
    }

    write_design_file(res.placed, output_path);
    std::cout << "wrote placed design to " << output_path << "\n";
    return 0;
}
