#include "common/thread_pool.h"

#include <algorithm>

namespace dnastore {

namespace {

/** Balances ThreadPool::active_ across every exit path. */
struct ActiveGuard
{
    std::atomic<size_t> &count;

    explicit ActiveGuard(std::atomic<size_t> &counter) : count(counter)
    {
        count.fetch_add(1, std::memory_order_relaxed);
    }

    ~ActiveGuard() { count.fetch_sub(1, std::memory_order_relaxed); }
};

} // namespace

size_t
ThreadPool::resolveThreadCount(size_t requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return std::max<size_t>(1, hw);
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool *const pool = new ThreadPool();
    return *pool;
}

ThreadPool::ThreadPool(size_t threads)
{
    size_t resolved = resolveThreadCount(threads);
    workers_.reserve(resolved - 1);
    try {
        for (size_t i = 0; i + 1 < resolved; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // A failed spawn (thread-resource exhaustion) must join the
        // workers already started before rethrowing, or their
        // joinable std::thread destructors would terminate().
        {
            sync::MutexLock lock(mutex_);
            stop_ = true;
        }
        work_cv_.notify_all();
        for (std::thread &worker : workers_)
            worker.join();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    {
        sync::MutexLock lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::runChunks(Job &job)
{
    ActiveGuard guard(active_);
    for (;;) {
        size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.n)
            return;
        try {
            (*job.body)(i);
        } catch (...) {
            {
                sync::MutexLock lock(mutex_);
                if (!job.error)
                    job.error = std::current_exception();
            }
            // Abandon the remaining iterations: park the counter past
            // the end so every thread drains out promptly.
            job.next.store(job.n, std::memory_order_relaxed);
            return;
        }
    }
}

ThreadPool::Job *
ThreadPool::pickRunnable() const
{
    for (Job *job : jobs_) {
        if (job->next.load(std::memory_order_relaxed) < job->n)
            return job;
    }
    return nullptr;
}

void
ThreadPool::workerLoop()
{
    sync::MutexLock lock(mutex_);
    for (;;) {
        Job *job = nullptr;
        // Open-coded wait loop: the analysis sees the guarded reads
        // under the lock (a predicate lambda would be opaque to it).
        while (!stop_ && (job = pickRunnable()) == nullptr)
            work_cv_.wait(lock);
        if (stop_)
            return;
        job->active.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        runChunks(*job);
        lock.lock();
        if (job->active.fetch_sub(1, std::memory_order_relaxed) == 1)
            done_cv_.notify_all();
    }
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;
    if (workers_.empty() || n == 1) {
        ActiveGuard guard(active_);
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    Job job;
    job.body = &body;
    job.n = n;
    {
        sync::MutexLock lock(mutex_);
        jobs_.push_back(&job);
    }
    work_cv_.notify_all();
    runChunks(job);

    sync::MutexLock lock(mutex_);
    // Unpublish the job, then wait for every worker that entered it
    // to leave: a worker waking after this point no longer finds the
    // (stack-allocated) job in the published list.
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    while (job.active.load(std::memory_order_relaxed) != 0)
        done_cv_.wait(lock);
    if (job.error)
        std::rethrow_exception(job.error);
}

void
parallelFor(ThreadPool *pool, size_t n,
            const std::function<void(size_t)> &body)
{
    if (pool) {
        pool->parallelFor(n, body);
        return;
    }
    for (size_t i = 0; i < n; ++i)
        body(i);
}

} // namespace dnastore
