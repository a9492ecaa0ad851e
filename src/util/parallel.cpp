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

    void run(const ChunkPlan& plan,
             const std::function<void(size_t, size_t, size_t)>& fn,
             int threads) EXCLUDES(run_mutex_, m_) {
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
        work_on(job);
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

}  // namespace

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
