/**
 * @file
 * Fixed-size worker pool with deterministic fork-join helpers.
 *
 * The decode pipeline parallelizes its embarrassingly-parallel stages
 * (per-read MinHash signatures, per-cluster BMA consensus, per-unit
 * RS decode, per-block encode) without changing a single output byte:
 * every parallelFor/parallelMap writes results into index-addressed
 * slots, so the reduction order — and therefore the result — is
 * independent of thread count and scheduling. No work stealing, no
 * task graph: published fork-join jobs with indices claimed from a
 * per-job atomic counter; the calling thread always participates in
 * its own job.
 *
 * Multiple fork-join jobs may be in flight at once (the DecodeService
 * shards per-partition decodes across one shared pool, and each
 * partition job's internal stages fork on the same pool), including
 * nested parallelFor calls issued from inside a job body: idle
 * workers drain whichever published job still has unclaimed indices,
 * and every caller makes progress on its own job inline, so the
 * nesting can never deadlock.
 */

#ifndef DNASTORE_COMMON_THREAD_POOL_H
#define DNASTORE_COMMON_THREAD_POOL_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace dnastore {

/**
 * Fixed-size thread pool.
 *
 * A pool of size 1 never spawns a thread and runs everything inline,
 * so sequential callers pay nothing. Pools are reusable across any
 * number of parallelFor calls, and calls may overlap: any thread may
 * fork a job at any time — including from inside another job's body —
 * and the pool's workers are shared among all in-flight jobs.
 */
class ThreadPool
{
  public:
    /**
     * @param threads worker count including the calling thread;
     *                0 means hardware_concurrency().
     */
    explicit ThreadPool(size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Resolved worker count (calling thread included). */
    size_t threadCount() const { return workers_.size() + 1; }

    /**
     * Threads currently executing job iterations — an instantaneous
     * sample for telemetry gauges, not a synchronization primitive.
     * Capped at threadCount(): a thread nested inside its own job's
     * parallelFor is busy once, not twice.
     */
    size_t
    activeThreads() const
    {
        return std::min(active_.load(std::memory_order_relaxed),
                        threadCount());
    }

    /** threadCount() minus activeThreads(); same sampling caveat. */
    size_t idleThreads() const { return threadCount() - activeThreads(); }

    /** Resolve a requested thread count (0 = hardware concurrency). */
    static size_t resolveThreadCount(size_t requested);

    /**
     * The process-wide pool of hardware_concurrency() workers that
     * every decode and encode entry point uses when it is handed no
     * pool. Built on first use, so a process that never encodes or
     * decodes without an explicit pool spawns no extra threads; the
     * first use may race from any number of threads. Its workers
     * persist for the life of the process, and with them their
     * thread-local arenas.
     *
     * Never destroyed: an exit-time destructor would run after the
     * exiting thread's thread-locals (the lock-rank stack among them)
     * are gone, and would have to join workers that a concurrent
     * caller may still be using.
     */
    static ThreadPool &shared();

    /**
     * Run body(i) for every i in [0, n), blocking until all
     * iterations finish. Iterations may run on any thread in any
     * order; the first exception thrown by the body is rethrown here
     * (remaining iterations of this job are abandoned; concurrent
     * jobs are unaffected). Safe to call from several threads at
     * once and reentrantly from inside a job body.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &body);

    /**
     * Map [0, n) through fn into a vector, out[i] = fn(i). T must be
     * default-constructible; slot order is by index, never by
     * completion, which is what keeps parallel stages byte-identical
     * to their sequential counterparts.
     */
    template <typename T, typename Fn>
    std::vector<T>
    parallelMap(size_t n, Fn &&fn)
    {
        std::vector<T> out(n);
        parallelFor(n, [&](size_t i) { out[i] = fn(i); });
        return out;
    }

  private:
    /** One fork-join job: indices [0, n) claimed via `next`. */
    struct Job
    {
        const std::function<void(size_t)> *body = nullptr;
        size_t n = 0;
        std::atomic<size_t> next{0};
        /** Workers currently executing this job's iterations. */
        std::atomic<size_t> active{0};
        std::exception_ptr error;  // first failure, guarded by mutex_
    };

    void workerLoop();
    void runChunks(Job &job);

    /** First published job with unclaimed indices. */
    Job *pickRunnable() const DNASTORE_REQUIRES(mutex_);

    std::vector<std::thread> workers_;
    sync::Mutex mutex_{sync::Rank::kPoolJobs, "thread_pool"};
    sync::CondVar work_cv_;
    sync::CondVar done_cv_;
    /** In-flight jobs. Job::error is likewise written under mutex_;
     *  the other Job fields are atomics or set before publication. */
    std::vector<Job *> jobs_ DNASTORE_GUARDED_BY(mutex_);
    bool stop_ DNASTORE_GUARDED_BY(mutex_) = false;

    /** Threads inside runChunks; nested entries count again, so
     *  activeThreads() caps the sample at threadCount(). */
    std::atomic<size_t> active_{0};
};

/**
 * parallelFor through an optional pool: inline when @p pool is null
 * (the sequential path used by default-constructed params and by
 * layers that were handed no pool).
 */
void parallelFor(ThreadPool *pool, size_t n,
                 const std::function<void(size_t)> &body);

} // namespace dnastore

#endif // DNASTORE_COMMON_THREAD_POOL_H
