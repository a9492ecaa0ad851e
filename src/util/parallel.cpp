#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "util/env.hpp"
#include "util/thread_annotations.hpp"

namespace rdp {
namespace par {

namespace {

int read_env_threads() {
    const unsigned hc = std::thread::hardware_concurrency();
    const int def = hc >= 1 ? static_cast<int>(hc) : 1;
    // Strict parse: "8abc" or out-of-range values warn and fall back to
    // the hardware default instead of being silently truncated.
    return static_cast<int>(env::int_or("RDP_THREADS", def, 1, 1024));
}

std::atomic<int> g_max_threads{0};  // 0 = not initialized yet

/// Set while a pool worker (or a thread inside run_chunks) executes chunk
/// functions; nested parallel regions then run inline and serial.
thread_local bool tls_in_parallel = false;

/// One in-flight parallel region. Workers pull chunk indices from `next`;
/// completion is `done == plan.num_chunks`. `admitted` caps how many pool
/// workers join, so RDP_THREADS=k really uses at most k threads (main + k-1).
struct Job {
    const std::function<void(size_t, size_t, size_t)>* fn = nullptr;
    ChunkPlan plan;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<int> admitted{0};
    int max_workers = 0;
    uint64_t id = 0;
    /// Workers currently holding a pointer to this job (guarded by the pool
    /// mutex). The job lives on the submitting thread's stack, so it must
    /// not be retired until every worker has let go — even ones that only
    /// woke up to find the admission cap already reached.
    int refs = 0;
};

class Pool {
public:
    static Pool& instance() {
        static Pool p;
        return p;
    }

    /// Run the chunks of `plan` on the pool. Without a `leader` the calling
    /// thread claims chunks too; with one it runs leader() instead, then
    /// retires every chunk no worker has claimed, so it never waits for a
    /// worker that has not joined.
    void run(const ChunkPlan& plan,
             const std::function<void(size_t, size_t, size_t)>& fn,
             int threads, const std::function<void()>* leader = nullptr)
        EXCLUDES(run_mutex_, m_) {
        // Serialize whole regions: one job at a time keeps the pool simple
        // and is all the placement loop needs.
        std::lock_guard<std::mutex> run_lock(run_mutex_);
        ensure_workers(threads - 1);

        Job job;
        job.fn = &fn;
        job.plan = plan;
        job.max_workers = threads - 1;
        {
            std::lock_guard<std::mutex> lk(m_);
            job.id = ++job_seq_;
            job_ = &job;
        }
        cv_.notify_all();

        // The calling thread participates too.
        tls_in_parallel = true;
        if (leader == nullptr) {
            work_on(job);
        } else {
            (*leader)();
            while (job.next.fetch_add(1) < plan.num_chunks)
                job.done.fetch_add(1);
        }
        tls_in_parallel = false;

        // Wait until every chunk ran AND every worker released its pointer:
        // `job` is a stack object, so a straggler that grabbed `job_` but
        // lost the admission race must detach before it is destroyed.
        std::unique_lock<std::mutex> lk(m_);
        done_cv_.wait(lk, [&] {
            return job.done.load() == plan.num_chunks && job.refs == 0;
        });
        job_ = nullptr;
    }

private:
    Pool() = default;
    ~Pool() {
        {
            std::lock_guard<std::mutex> lk(m_);
            stop_ = true;
        }
        cv_.notify_all();
        // Joining must happen without m_ held (exiting workers take it), so
        // detach the worker list from the guarded member first.
        std::vector<std::thread> workers;
        {
            std::lock_guard<std::mutex> lk(m_);
            workers.swap(workers_);
        }
        for (std::thread& t : workers) t.join();
    }

    void ensure_workers(int want) EXCLUDES(m_) {
        std::lock_guard<std::mutex> lk(m_);
        while (static_cast<int>(workers_.size()) < want)
            workers_.emplace_back([this] { worker_loop(); });
    }

    void work_on(Job& job) EXCLUDES(m_) {
        const size_t n = job.plan.num_chunks;
        while (true) {
            const size_t c = job.next.fetch_add(1);
            if (c >= n) break;
            (*job.fn)(job.plan.begin(c), job.plan.end(c), c);
            if (job.done.fetch_add(1) + 1 == n) {
                std::lock_guard<std::mutex> lk(m_);
                done_cv_.notify_all();
            }
        }
    }

    void worker_loop() EXCLUDES(m_) {
        uint64_t last_id = 0;
        while (true) {
            Job* job = nullptr;
            {
                std::unique_lock<std::mutex> lk(m_);
                cv_.wait(lk, [&] {
                    return stop_ || (job_ != nullptr && job_->id != last_id);
                });
                if (stop_) return;
                job = job_;
                last_id = job->id;
                ++job->refs;
            }
            // Respect the configured thread budget for this region.
            if (job->admitted.fetch_add(1) < job->max_workers) {
                tls_in_parallel = true;
                work_on(*job);
                tls_in_parallel = false;
            }
            {
                std::lock_guard<std::mutex> lk(m_);
                --job->refs;
            }
            done_cv_.notify_all();
        }
    }

    /// Serializes whole parallel regions (one job at a time).
    std::mutex run_mutex_;
    /// Guards the job hand-off state below. Job::refs is guarded by it too,
    /// but lives in the stack-allocated Job, so the annotation cannot name
    /// it — every touch of `refs` in this file is under m_.
    std::mutex m_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_ GUARDED_BY(m_);
    Job* job_ GUARDED_BY(m_) = nullptr;
    uint64_t job_seq_ GUARDED_BY(m_) = 0;
    bool stop_ GUARDED_BY(m_) = false;
};

/// Pause hint for spin-waits.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/// Pause iterations (tens of microseconds in all) a participant spins
/// before it parks: a helper waiting for the next batch, or the leader
/// waiting for claimed tasks. Long enough to bridge the leader's serial
/// work between two batches; short enough that a waiting thread gives its
/// core back quickly, which matters when the host has fewer free cores
/// than the pool has threads.
constexpr int kSpinLimit = 512;

/// Batch word: generation (32 bits) | task count (16) | next task (16).
/// Count and cursor live in one word with the generation so a claim is a
/// single compare-and-swap that can only succeed against the batch the
/// helper read the count of.
constexpr uint64_t kMaxBatch = 0xffff;
uint64_t batch_count(uint64_t w) { return (w >> 16) & kMaxBatch; }
uint64_t batch_next(uint64_t w) { return w & kMaxBatch; }

}  // namespace

struct Helpers::Shared {
    alignas(64) std::atomic<uint64_t> batch{0};
    alignas(64) std::atomic<size_t> done{0};
    alignas(64) std::atomic<int> sleepers{0};
    std::atomic<bool> leader_parked{false};
    std::atomic<bool> closed{false};
    /// Written by the leader only while no task is claimed; read by a
    /// participant only after it claimed a task of the current batch.
    const std::function<void(size_t, int)>* task = nullptr;
    size_t base = 0;
    uint32_t gen = 0;  // leader-only
    std::mutex m;
    std::condition_variable cv;         // helpers wait for a batch
    std::condition_variable leader_cv;  // the leader waits for its tasks

    /// Claim the next task of the current batch; false when none is left.
    bool claim(uint64_t& w, size_t& i) {
        w = batch.load(std::memory_order_acquire);
        while (batch_next(w) < batch_count(w)) {
            if (batch.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
                i = base + static_cast<size_t>(batch_next(w));
                return true;
            }
        }
        return false;
    }

    /// Run a claimed task of the batch `w`; the participant finishing the
    /// last one wakes a parked leader (same handshake as for sleepers).
    void run_claimed(uint64_t w, size_t i, int slot) {
        (*task)(i, slot);
        if (done.fetch_add(1) + 1 == batch_count(w) && leader_parked.load()) {
            std::lock_guard<std::mutex> lk(m);
            leader_cv.notify_all();
        }
    }

    void wake_sleepers() {
        if (sleepers.load() == 0) return;
        std::lock_guard<std::mutex> lk(m);
        cv.notify_all();
    }

    void helper_loop(int slot) {
        while (true) {
            uint64_t w = 0;
            size_t i = 0;
            if (claim(w, i)) {
                run_claimed(w, i, slot);
                continue;
            }
            if (closed.load(std::memory_order_acquire)) return;
            auto changed = [&] { return batch.load() != w || closed.load(); };
            int spins = 0;
            while (spins < kSpinLimit && !changed()) {
                cpu_relax();
                ++spins;
            }
            if (spins < kSpinLimit) continue;
            // Park. The sleeper count is published before the predicate is
            // re-read under the mutex, and the leader stores the new batch
            // before it reads the count, so one of them sees the other.
            std::unique_lock<std::mutex> lk(m);
            sleepers.fetch_add(1);
            cv.wait(lk, changed);
            sleepers.fetch_sub(1);
        }
    }

    void leader_run(size_t n, const std::function<void(size_t, int)>& fn) {
        for (size_t b = 0; b < n; b += kMaxBatch) {
            const uint64_t count = std::min<uint64_t>(n - b, kMaxBatch);
            task = &fn;
            base = b;
            done.store(0, std::memory_order_relaxed);
            ++gen;
            batch.store((static_cast<uint64_t>(gen) << 32) | (count << 16));
            wake_sleepers();
            uint64_t w = 0;
            size_t i = 0;
            while (claim(w, i)) run_claimed(w, i, 0);
            // Only tasks a helper already claimed can be outstanding.
            auto finished = [&] { return done.load() == count; };
            for (int spins = 0; spins < kSpinLimit && !finished(); ++spins)
                cpu_relax();
            if (finished()) continue;
            std::unique_lock<std::mutex> lk(m);
            leader_parked.store(true);
            leader_cv.wait(lk, finished);
            leader_parked.store(false);
        }
    }

    void close() {
        closed.store(true);
        std::lock_guard<std::mutex> lk(m);
        cv.notify_all();
    }
};

void Helpers::run(size_t n, const std::function<void(size_t, int)>& task) {
    if (n == 0) return;
    // A lone task runs on the leader without waking anyone.
    if (shared_ == nullptr || n == 1) {
        for (size_t i = 0; i < n; ++i) task(i, 0);
        return;
    }
    shared_->leader_run(n, task);
}

void with_helpers(const std::function<void(Helpers&)>& body,
                  int max_width) {
    const int threads = std::min(max_threads(), max_width);
    if (threads <= 1 || tls_in_parallel) {
        Helpers inline_only(nullptr, 1);
        body(inline_only);
        return;
    }
    Helpers::Shared shared;
    Helpers helpers(&shared, threads);
    // One chunk per helper slot; a chunk is that helper's whole stay.
    ChunkPlan p;
    p.n = static_cast<size_t>(threads - 1);
    p.num_chunks = p.n;
    const std::function<void(size_t, size_t, size_t)> join =
        [&](size_t, size_t, size_t c) {
            shared.helper_loop(static_cast<int>(c) + 1);
        };
    const std::function<void()> leader = [&] {
        body(helpers);
        shared.close();
    };
    Pool::instance().run(p, join, threads, &leader);
}

int max_threads() {
    int v = g_max_threads.load(std::memory_order_relaxed);
    if (v == 0) {
        v = read_env_threads();
        g_max_threads.store(v, std::memory_order_relaxed);
    }
    return v;
}

void set_max_threads(int n) {
    g_max_threads.store(std::max(n, 1), std::memory_order_relaxed);
}

ChunkPlan plan(size_t n, size_t grain, size_t max_chunks) {
    ChunkPlan p;
    p.n = n;
    const size_t g = std::max<size_t>(grain, 1);
    const size_t by_grain = n / g;  // chunks of at least `grain` items
    p.num_chunks = std::clamp<size_t>(by_grain, 1, std::max<size_t>(max_chunks, 1));
    return p;
}

void run_chunks(const ChunkPlan& p,
                const std::function<void(size_t, size_t, size_t)>& fn) {
    if (p.n == 0) return;
    const int threads = max_threads();
    if (threads <= 1 || p.num_chunks <= 1 || tls_in_parallel) {
        // Serial path: same chunks, same order — bitwise identical results.
        for (size_t c = 0; c < p.num_chunks; ++c)
            fn(p.begin(c), p.end(c), c);
        return;
    }
    Pool::instance().run(p, fn, threads);
}

}  // namespace par
}  // namespace rdp
