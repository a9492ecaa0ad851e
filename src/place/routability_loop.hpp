#pragma once
// Stage 2 of the framework: the routability-driven outer loop of paper
// Fig. 2. Split from GlobalPlacer so it can be driven directly by tests
// and by the ablation bench.

#include <memory>

#include "place/global_placer.hpp"
#include "place/nesterov.hpp"
#include "place/objective.hpp"
#include "recover/recover.hpp"

namespace rdp {

struct RoutabilityStats {
    int outer_iters = 0;
    std::vector<double> total_overflow;   ///< router overflow per outer iter
    std::vector<double> penalty;          ///< C(x, y) per outer iter
    std::vector<double> mean_inflation;   ///< mean ratio over movables
    /// Outer iteration whose snapshot the stage restored at the end
    /// (-1 = the entry state survived as best).
    int best_iter = -1;
    /// Inflation-budget bookkeeping restored together with the snapshot:
    /// the effective ratios and the PG/DPA extra-area charge the restored
    /// positions were actually scored with (not the last iteration's).
    std::vector<double> final_ratios;
    double final_extra_area = 0.0;
    /// Recovery/degradation events of this stage (merged into
    /// PlaceResult::recovery by GlobalPlacer).
    recover::RecoveryReport recovery;
};

/// Run the routability-driven stage on a working design (fillers included;
/// `movable` lists the optimizer's cell indices). Mutates cell positions.
/// `selected_rails` is the PG-rail pre-selection (Fig. 2 first box).
/// `first_filler` is the index of the first filler cell (== d.num_cells()
/// when there are none): inflation is budgeted against the filler area —
/// inflated cell area is taken from the fillers so the total charge stays
/// feasible and the density term cannot diverge.
///
/// `durable` (optional) journals a PipelineSnapshot at every outer
/// iteration boundary; `resume` (optional, stage == kStageRoutability)
/// restarts the loop from such a snapshot — positions, inflation, maps,
/// router relaxations, and best-so-far state all restored — and
/// continues to a bitwise-identical final placement (DESIGN.md §16).
RoutabilityStats run_routability_stage(
    Design& d, const std::vector<int>& movable, PlacementObjective& obj,
    const PlacerConfig& cfg, const std::vector<PGRail>& selected_rails,
    int first_filler, recover::DurableCheckpointer* durable = nullptr,
    const recover::PipelineSnapshot* resume = nullptr);

/// Budget raw inflation ratios against the filler whitespace: scales the
/// per-cell inflation excesses so their area growth plus `extra_area`
/// (the PG density charge) does not exceed the usable filler area, and
/// shrinks the fillers by the total consumed area. Returns the filler
/// shrink ratio. `ratios` is modified in place (fillers' entries are
/// overwritten).
double budget_inflation(const Design& d, int first_filler,
                        std::vector<double>& ratios,
                        double usable_filler_frac, double extra_area = 0.0);

/// Create the inflation scheme matching mode/toggles (exposed for tests).
std::unique_ptr<InflationScheme> make_inflation_scheme(const PlacerConfig& cfg,
                                                       int num_cells);

}  // namespace rdp
