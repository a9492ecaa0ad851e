#pragma once
// Deterministic shared-memory parallel execution layer.
//
// The contract every kernel in this repo relies on: the chunk decomposition
// of an index range is a function of the problem size (and the caller's
// grain) ONLY — never of the worker-thread count. Each chunk produces an
// independent partial result; partials are combined in fixed chunk order.
// Because the serial path (RDP_THREADS=1) executes the *same* chunked
// combine, every result is bitwise identical for any thread count.
//
// Thread count comes from the RDP_THREADS environment variable (default:
// hardware concurrency; 1 forces the serial path) and can be overridden at
// runtime with set_max_threads() — used by tests and benchmarks to sweep
// thread counts inside one process.
//
// The pool is lazily started on the first parallel call and is shared
// process-wide. Nested parallel calls (from inside a worker) run inline and
// serial, with the same chunk plan, so determinism is preserved. Chunk
// functions must not throw.

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace rdp {
namespace par {

/// Current maximum number of threads a parallel region may use (>= 1).
/// First call reads RDP_THREADS; unset/invalid falls back to
/// std::thread::hardware_concurrency().
int max_threads();

/// Override the thread count at runtime (clamped to >= 1). Existing pool
/// workers are kept; a lower count simply limits how many participate.
void set_max_threads(int n);

/// A deterministic decomposition of [0, n) into near-equal chunks.
/// Chunk boundaries depend only on (n, grain, max_chunks).
struct ChunkPlan {
    size_t n = 0;
    size_t num_chunks = 1;

    size_t begin(size_t c) const { return c * n / num_chunks; }
    size_t end(size_t c) const { return (c + 1) * n / num_chunks; }
};

/// Plan for [0, n): at most max_chunks chunks, each at least `grain` items
/// (except when n < grain, which yields one chunk). `max_chunks` bounds the
/// memory of per-chunk accumulators at the call site.
ChunkPlan plan(size_t n, size_t grain, size_t max_chunks = 64);

/// Execute fn(begin, end, chunk_index) for every chunk of the plan,
/// possibly concurrently. Returns when all chunks are done. fn must write
/// only to disjoint state (per-chunk slots or disjoint index ranges).
void run_chunks(const ChunkPlan& p,
                const std::function<void(size_t, size_t, size_t)>& fn);

/// Element-parallel loop over [0, n): fn(begin, end) per chunk. Safe when
/// iterations write disjoint locations (no reduction involved).
template <typename Fn>
void parallel_for(size_t n, size_t grain, Fn&& fn) {
    const ChunkPlan p = plan(n, grain);
    run_chunks(p, [&](size_t b, size_t e, size_t) { fn(b, e); });
}

/// Deterministic reduction: chunk_fn(begin, end) -> T computed per chunk
/// (concurrently), then combined in ascending chunk order:
///   acc = combine(combine(init, t0), t1) ...
/// The fixed combine order makes floating-point results thread-invariant.
template <typename T, typename ChunkFn, typename CombineFn>
T parallel_reduce(size_t n, size_t grain, T init, ChunkFn&& chunk_fn,
                  CombineFn&& combine, size_t max_chunks = 64) {
    // Each partial sits in its own struct so std::vector<bool> bit packing
    // never applies: chunks finishing on different threads would otherwise
    // read-modify-write a shared word and lose each other's results.
    struct Slot {
        T value;
    };
    const ChunkPlan p = plan(n, grain, max_chunks);
    std::vector<Slot> partial(p.num_chunks);
    run_chunks(p, [&](size_t b, size_t e, size_t c) {
        partial[c].value = chunk_fn(b, e);
    });
    T acc = std::move(init);
    for (size_t c = 0; c < p.num_chunks; ++c)
        acc = combine(std::move(acc), std::move(partial[c].value));
    return acc;
}

/// Deterministic sum of chunk_fn(begin, end) doubles in chunk order.
template <typename ChunkFn>
double parallel_sum(size_t n, size_t grain, ChunkFn&& chunk_fn,
                    size_t max_chunks = 64) {
    return parallel_reduce(
        n, grain, 0.0, std::forward<ChunkFn>(chunk_fn),
        [](double a, double b) { return a + b; }, max_chunks);
}

/// Leader/helper region for a serial loop that hands small batches of
/// independent tasks to the pool many times over (the router's
/// speculative rip-up-and-reroute waves). One pool region serves the whole
/// loop: the pool threads join as helpers, claim the tasks of each batch
/// through an atomic counter, spin briefly between batches, then park.
/// The leader takes part in every batch and waits only for tasks a helper
/// has already claimed, so a region whose helpers never arrive — nested
/// inside another region, under a 1-thread pool, or on an oversubscribed
/// host — still completes, inline on the leader.
class Helpers {
public:
    Helpers(const Helpers&) = delete;
    Helpers& operator=(const Helpers&) = delete;

    /// Participants that may run tasks at once: the leader plus the pool
    /// threads admitted to the region; 1 when the region runs inline.
    int width() const { return width_; }

    /// Run task(i, slot) for every i in [0, n); returns when all are done.
    /// `slot` in [0, width()) names the participant running the task (0 is
    /// the leader). A participant runs one task at a time, so per-slot
    /// scratch needs no locking; which slot runs which task varies from
    /// run to run, so results must not depend on it.
    void run(size_t n, const std::function<void(size_t, int)>& task);

private:
    struct Shared;  // batch hand-off state (parallel.cpp)
    friend void with_helpers(const std::function<void(Helpers&)>& body);
    Helpers(Shared* shared, int width) : shared_(shared), width_(width) {}

    Shared* shared_;
    int width_;
};

/// Run body(helpers) on the calling thread inside one leader/helper region
/// sized by max_threads(). Nested parallel calls made by the body or by
/// the tasks run inline. body and tasks must not throw.
void with_helpers(const std::function<void(Helpers&)>& body);

}  // namespace par
}  // namespace rdp
