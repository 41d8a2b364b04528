/**
 * @file
 * Machine-checked locking discipline: annotated mutex wrappers plus a
 * debug-build lock-rank registry.
 *
 * Every mutex in src/ is a sync::Mutex constructed with a named rank
 * from the single ordered table below (raw std::mutex is banned in
 * src/; CI greps for it). Two independent checkers enforce the
 * discipline:
 *
 *  - **Compile time** (clang only): the wrappers carry clang
 *    capability attributes, so `-Wthread-safety -Werror` on the clang
 *    CI legs proves every GUARDED_BY field is only touched with its
 *    mutex held and every REQUIRES helper is only called under the
 *    right lock. Under gcc/MSVC the attributes expand to nothing.
 *
 *  - **Run time** (debug builds, any compiler): a thread-local
 *    held-rank stack checks each acquisition against the rank table —
 *    acquiring a mutex whose rank is not strictly below every mutex
 *    the thread already holds aborts immediately, printing both lock
 *    names and the full held stack. A lock-order inversion (the PR 6
 *    class: telemetry registry taken under the service mutex) becomes
 *    an instant deterministic failure on the first wrong acquisition,
 *    instead of a TSan lottery that needs the two threads to actually
 *    collide.
 *
 * The rank table is total: mutexes may only be acquired in strictly
 * descending rank order, so any cycle in the lock graph implies a
 * rank inversion on at least one edge, and the checker fires on that
 * edge no matter which thread runs first.
 */

#ifndef DNASTORE_COMMON_SYNC_H
#define DNASTORE_COMMON_SYNC_H

#include <condition_variable>
#include <mutex>
#include <vector>

/*
 * Clang thread-safety-analysis attribute macros (no-ops elsewhere).
 * Follows the canonical mutex.h from the clang documentation; see
 * CONTRIBUTING.md "Concurrency discipline" for the cheat-sheet.
 */
#if defined(__clang__)
#define DNASTORE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DNASTORE_THREAD_ANNOTATION(x)
#endif

/** Marks a class as a lockable capability (mutex-like). */
#define DNASTORE_CAPABILITY(x) \
    DNASTORE_THREAD_ANNOTATION(capability(x))

/** Marks an RAII class whose lifetime equals a critical section. */
#define DNASTORE_SCOPED_CAPABILITY \
    DNASTORE_THREAD_ANNOTATION(scoped_lockable)

/** Field may only be read/written with the given mutex held. */
#define DNASTORE_GUARDED_BY(x) DNASTORE_THREAD_ANNOTATION(guarded_by(x))

/** Pointee may only be touched with the given mutex held. */
#define DNASTORE_PT_GUARDED_BY(x) \
    DNASTORE_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function acquires the capability (held on return, not on entry). */
#define DNASTORE_ACQUIRE(...) \
    DNASTORE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the capability (held on entry, not on return). */
#define DNASTORE_RELEASE(...) \
    DNASTORE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Caller must hold the capability; the function does not release. */
#define DNASTORE_REQUIRES(...) \
    DNASTORE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Caller must NOT hold the capability (the function acquires it, or
 *  holding it here would deadlock / invert the rank order). */
#define DNASTORE_EXCLUDES(...) \
    DNASTORE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returns a reference to the given capability. */
#define DNASTORE_RETURN_CAPABILITY(x) \
    DNASTORE_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch for bodies the analysis cannot follow (drop/relock
 *  through a parameter, intentional order tricks in tests). The
 *  function's own REQUIRES/EXCLUDES contracts are still enforced at
 *  call sites. Always pair with a comment saying why. */
#define DNASTORE_NO_THREAD_SAFETY_ANALYSIS \
    DNASTORE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dnastore::sync {

/**
 * The single ordered rank table. A thread may acquire a mutex only
 * while every mutex it already holds has a strictly greater rank —
 * i.e. locks are taken top-down through this table and released in
 * any order. Equal ranks never nest (so acquiring the same mutex
 * twice, or two peers of one rank, is rejected too).
 *
 * Values are spaced so future subsystems can slot between existing
 * levels without renumbering. When adding a mutex, pick the rank of
 * the state it guards; when two guarded states must nest, the outer
 * acquisition needs the higher rank (see CONTRIBUTING.md).
 */
enum class Rank : int
{
    /** MetricsRegistry::mutex_ — instrument creation and snapshots.
     *  Highest: the registry is a leaf *service* shared by every
     *  subsystem, so no subsystem lock may be held when reaching for
     *  it (the PR 6 inversion took it under kServiceState). */
    kTelemetryRegistry = 500,

    /** DecodeService::mutex_ — admission, tenant queues, WDRR state,
     *  ticket line, in-flight accounting. */
    kServiceState = 400,

    /** DecodeStream::State::m — per-stream unit promise/future maps
     *  shared between caller threads and the dispatcher. */
    kStreamState = 300,

    /** core::ReadFeed::mutex_ — a fed request's pending read chunks,
     *  shared by the client that sequences them and the dispatcher
     *  that decodes them. Wraps no other acquisition. */
    kReadFeed = 250,

    /** ThreadPool::mutex_ — published fork-join jobs and stop flag.
     *  Near the bottom: pool internals may be reached from inside any
     *  higher layer's critical section, never the other way round. */
    kPoolJobs = 200,

    /** TraceCollector::mutex_ — the bounded finished-trace ring and
     *  sampling counters. A trace deposits into the collector only at
     *  root-span end, after draining its own span buffer, so the two
     *  trace mutexes never nest; the collector still outranks
     *  kTraceBuffer so a future combined walk stays legal. */
    kTraceCollector = 160,

    /** trace::TraceData::mutex_ — one live trace's span buffer.
     *  Span begin/end from decode workers may run inside pool jobs,
     *  so the buffer must rank below kPoolJobs; it never wraps any
     *  other acquisition. */
    kTraceBuffer = 150,

    /** Ad-hoc leaf mutexes (tests, callbacks, future client state)
     *  that never wrap another acquisition. */
    kLeaf = 100,
};

/** Human-readable name of a rank (for diagnostics and tests). */
const char *rankName(Rank rank);

/**
 * True when the runtime lock-rank checker is compiled in (sync.cc
 * built without NDEBUG — the Debug CI legs and `--preset debug`).
 * The deliberate-inversion death tests assert this is true in debug
 * builds, so silently disabling the checker fails the build.
 */
bool rankChecksEnabled();

/**
 * Ranks currently held by the calling thread, acquisition order
 * (oldest first). Empty when the checker is compiled out. Test
 * introspection only — not a synchronization primitive.
 */
std::vector<Rank> heldRanksForTest();

class Mutex;

namespace detail {

/** Check the rank order and push; aborts (with both names and the
 *  full held stack) on violation. No-op when the checker is off. */
void noteAcquire(const Mutex &mutex);

/** Pop the mutex from the held stack (any position — release order
 *  is unconstrained). No-op when the checker is off. */
void noteRelease(const Mutex &mutex);

} // namespace detail

/**
 * A std::mutex with a mandatory rank and a diagnostic name. Lock it
 * through MutexLock (or lock()/unlock() directly in code that cannot
 * be scoped); every acquisition passes the rank checker in debug
 * builds.
 */
class DNASTORE_CAPABILITY("mutex") Mutex
{
  public:
    /**
     * @param rank position in the ordered table above.
     * @param name diagnostic label used in rank-violation aborts;
     *             defaults to the rank's own name. Must be a string
     *             literal (the pointer is kept, not copied).
     */
    explicit Mutex(Rank rank, const char *name = nullptr)
        : rank_(rank), name_(name ? name : rankName(rank))
    {}

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() DNASTORE_ACQUIRE()
    {
        detail::noteAcquire(*this);
        m_.lock();
    }

    void
    unlock() DNASTORE_RELEASE()
    {
        m_.unlock();
        detail::noteRelease(*this);
    }

    Rank rank() const { return rank_; }
    const char *name() const { return name_; }

  private:
    friend class MutexLock;

    std::mutex m_;
    const Rank rank_;
    const char *const name_;
};

class CondVar;

/**
 * Scoped lock on a sync::Mutex (the only way critical sections are
 * written in src/). Supports the drop/relock idiom via unlock() and
 * lock(), and condition waits via CondVar::wait — a wait releases and
 * reacquires the underlying mutex without touching the rank stack,
 * which stays correct because a blocked thread acquires nothing.
 */
class DNASTORE_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) DNASTORE_ACQUIRE(mutex)
        : mutex_(&mutex), ul_(mutex.m_, std::defer_lock)
    {
        // Check-then-block: a rank violation aborts with a clean
        // diagnostic *before* the thread can deadlock on the lock it
        // was never allowed to take.
        detail::noteAcquire(*mutex_);
        ul_.lock();
    }

    ~MutexLock() DNASTORE_RELEASE()
    {
        if (ul_.owns_lock()) {
            ul_.unlock();
            detail::noteRelease(*mutex_);
        }
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    /** Temporarily leave the critical section (drop/relock idiom). */
    void
    unlock() DNASTORE_RELEASE()
    {
        ul_.unlock();
        detail::noteRelease(*mutex_);
    }

    /** Re-enter after unlock(); re-checked against the rank table. */
    void
    lock() DNASTORE_ACQUIRE()
    {
        detail::noteAcquire(*mutex_);
        ul_.lock();
    }

  private:
    friend class CondVar;

    Mutex *mutex_;
    std::unique_lock<std::mutex> ul_;
};

/**
 * Condition variable paired with sync::Mutex. wait() takes the
 * MutexLock guarding the predicate's state; write waits as explicit
 * `while (!pred) cv.wait(lock);` loops so the thread-safety analysis
 * sees the guarded reads under the lock (predicate lambdas are
 * opaque to it).
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release @p lock, sleep, reacquire. The rank stack
     *  keeps the mutex marked held across the wait: the thread is
     *  blocked the whole time, so it can acquire nothing else, and
     *  on return the mutex really is held again. */
    void
    wait(MutexLock &lock)
    {
        cv_.wait(lock.ul_);
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace dnastore::sync

#endif // DNASTORE_COMMON_SYNC_H
