#pragma once
// Durable crash-consistent checkpointing (DESIGN.md §16).
//
// The in-memory rollback point (RollbackPoint) dies with the process;
// this layer persists the pipeline state a stage boundary needs so a run
// killed at any instruction — OOM, preemption, power loss — resumes and
// finishes **bitwise identical** to the uninterrupted run.
//
// Format: a versioned binary snapshot ("RDPCKPT\0", format version,
// design/config fingerprint, stage/iteration cursor) holding tagged
// sections — positions, optimizer momentum, inflation state, best-so-far
// snapshot, congestion/extra-density maps, oscillation history — each
// with its own FNV-1a 64 checksum, so truncation or a bit flip anywhere
// names the damaged section instead of producing silent garbage.
//
// Journal: two alternating slot files (ckpt-a.bin / ckpt-b.bin, slot =
// generation % 2), each written temp-file + fsync + atomic rename
// (io_atomic.hpp). A crash mid-write tears at most the temp file; a
// corrupted newest generation falls back to the previous one; when both
// are unusable the run warns and starts clean. Write failures (disk
// full, unwritable directory) degrade once, loudly, to the in-memory
// recovery ladder only.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "inflation/momentum_inflation.hpp"
#include "util/geometry.hpp"
#include "util/grid2d.hpp"

namespace rdp::recover {

/// Stage cursor values stored in the snapshot header.
inline constexpr int kStageWirelength = 1;
inline constexpr int kStageRoutability = 2;

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;

/// FNV-1a 64-bit over `n` bytes — the per-section checksum and the
/// design-fingerprint hash. Chainable via `seed`.
uint64_t fnv1a64(const void* data, size_t n, uint64_t seed = kFnvOffset);

/// Complete momentum state of a NesterovSolver: restore() onto a freshly
/// constructed solver reproduces the iterate sequence bit for bit.
struct OptimizerSnapshot {
    std::vector<Vec2> u;       ///< main iterate
    std::vector<Vec2> v;       ///< reference (lookahead) iterate
    std::vector<Vec2> prev_v;  ///< previous reference (BB steplength)
    std::vector<Vec2> prev_g;  ///< previous gradient (BB steplength)
    double a = 1.0;
    int k = 0;
    double last_alpha = 0.0;
    bool have_prev = false;
};

/// The live mutable state of both stage loops (DESIGN.md §11, §16): the
/// loops work on these fields, a durable save serializes them, a resume
/// assigns them, and a rollback point or best-so-far is a copy of `cur`.
/// Between captures stage 1's solver owns `cur.pos` and `opt`, and stage
/// 2's inflation scheme owns `cur.inflation` (stage 2 leaves `opt` empty).
struct PipelineSnapshot {
    /// What a rollback restores and best-so-far keeps.
    struct Iterate {
        std::vector<Vec2> pos;  ///< movable-cell positions
        double lambda1 = 0.0;   ///< density weight
        double gamma = 0.0;     ///< WA smoothing
        double last_wl = 0.0;   ///< last healthy WA total (explosion base)
        std::vector<double> ratios;  ///< effective inflation ratios
        InflationSnapshot inflation;
    };
    /// Stage 2's best-so-far: the iterate it restores at the end.
    struct Best {
        Iterate at;
        double overflow = 0.0;    ///< severity-weighted overflow it scored
        double extra_area = 0.0;  ///< PG/DPA charge paired with its ratios
        int iter = -1;            ///< outer iteration (-1 = stage entry)
    };

    int stage = 0;
    int iter = 0;  ///< loop cursor: next (outer) iteration to run
    Iterate cur;
    Best best;
    OptimizerSnapshot opt;

    // Knobs the recovery ladder damps; never rolled back.
    double lambda1_growth = 1.0;
    double initial_step = 1e-3;
    bool dc = false;
    bool dpa = false;
    double router_overflow_penalty = 0.0;
    std::vector<double> router_layer_capacity;

    // Stage-2 stop criterion and divergence history.
    double best_metric = 0.0;
    int stall = 0;
    bool use_ckpt_cmap = false;  ///< CorruptedDemand fallback, one-shot
    std::vector<double> osc_window;

    GridF extra;          ///< static extra-density field (PG rails + DPA)
    GridF cmap_demand;    ///< last-good congestion map: that of the last
    GridF cmap_capacity;  ///< completed outer iteration (empty before)
};

/// A recovery rollback point: the live iterate at stage iteration `iter`.
struct RollbackPoint {
    int iter = -1;  ///< -1 = none captured yet
    PipelineSnapshot::Iterate at;
    bool valid() const { return iter >= 0; }
};

/// Knobs of the durable layer; disabled while `dir` is empty.
struct DurableOptions {
    std::string dir;     ///< journal directory (RDP_CHECKPOINT_DIR)
    int every = 25;      ///< stage-1 save cadence (RDP_CHECKPOINT_EVERY);
                         ///< stage 2 saves at every outer iteration
    std::string resume;  ///< "", "auto", or a snapshot path (RDP_RESUME)
};

/// Serialize/deserialize one snapshot. Exposed (rather than private to
/// DurableCheckpointer) so the corruption tests can flip bytes in every
/// section and assert each one is detected. deserialize_snapshot never
/// throws on hostile bytes: any structural damage, checksum mismatch, or
/// fingerprint mismatch returns false with a diagnostic in `error`.
std::vector<uint8_t> serialize_snapshot(const PipelineSnapshot& snap,
                                        uint64_t fingerprint,
                                        uint64_t generation);
bool deserialize_snapshot(const std::vector<uint8_t>& bytes,
                          uint64_t fingerprint, PipelineSnapshot* out,
                          uint64_t* generation, std::string* error);

/// The two-generation journal. Construction scans the directory so new
/// saves continue the generation sequence past whatever valid snapshots
/// already exist (a resumed run's saves must stay the newest).
class DurableCheckpointer {
public:
    DurableCheckpointer() = default;  ///< disabled
    DurableCheckpointer(const DurableOptions& opts, uint64_t fingerprint);

    /// False when no directory is configured or a write failure degraded
    /// the layer to in-memory-only recovery.
    bool enabled() const { return !opts_.dir.empty() && !degraded_; }
    int every() const { return opts_.every < 1 ? 1 : opts_.every; }
    uint64_t generation() const { return generation_; }

    /// Persist one snapshot as the next generation. Any I/O failure
    /// warns once and permanently degrades (the run itself continues).
    void save(const PipelineSnapshot& snap);

    /// Honour the resume request ("" = none, "auto" = newest valid
    /// generation in the journal, else an explicit snapshot path).
    /// Corrupt or mismatched candidates warn and fall back — to the
    /// previous generation under "auto", else to a clean start.
    std::optional<PipelineSnapshot> load_resume();

    /// Journal slot file that generation `generation` occupies.
    std::string slot_path(uint64_t generation) const;

private:
    DurableOptions opts_;
    uint64_t fingerprint_ = 0;
    uint64_t generation_ = 0;
    bool degraded_ = false;
};

}  // namespace rdp::recover
