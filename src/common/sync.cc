#include "common/sync.h"

#include <cstdio>
#include <cstdlib>

namespace dnastore::sync {

const char *
rankName(Rank rank)
{
    switch (rank) {
      case Rank::kTelemetryRegistry:
        return "TelemetryRegistry";
      case Rank::kServiceState:
        return "ServiceState";
      case Rank::kStreamState:
        return "StreamState";
      case Rank::kReadFeed:
        return "ReadFeed";
      case Rank::kPoolJobs:
        return "PoolJobs";
      case Rank::kTraceCollector:
        return "TraceCollector";
      case Rank::kTraceBuffer:
        return "TraceBuffer";
      case Rank::kLeaf:
        return "Leaf";
    }
    return "UnknownRank";
}

#ifdef NDEBUG

bool
rankChecksEnabled()
{
    return false;
}

std::vector<Rank>
heldRanksForTest()
{
    return {};
}

namespace detail {

void
noteAcquire(const Mutex &)
{}

void
noteRelease(const Mutex &)
{}

} // namespace detail

#else // !NDEBUG — the rank checker proper

namespace {

/** Per-thread stack of held mutexes, acquisition order (oldest
 *  first). Function-local so first use on any thread constructs it. */
std::vector<const Mutex *> &
heldStack()
{
    thread_local std::vector<const Mutex *> stack;
    return stack;
}

/** One line per abort so death-test regexes never span newlines. */
[[noreturn]] void
abortRankViolation(const char *kind, const Mutex &acquiring,
                   const Mutex &held)
{
    const std::vector<const Mutex *> &stack = heldStack();
    std::fprintf(stderr,
                 "sync: lock-rank violation (%s): acquiring '%s' "
                 "(rank %s/%d) while holding '%s' (rank %s/%d); held "
                 "stack (oldest first): [",
                 kind, acquiring.name(), rankName(acquiring.rank()),
                 static_cast<int>(acquiring.rank()), held.name(),
                 rankName(held.rank()),
                 static_cast<int>(held.rank()));
    for (size_t i = 0; i < stack.size(); ++i)
        std::fprintf(stderr, "%s'%s' (%s)", i == 0 ? "" : ", ",
                     stack[i]->name(), rankName(stack[i]->rank()));
    std::fprintf(stderr, "]\n");
    std::fflush(stderr);
    std::abort();
}

} // namespace

bool
rankChecksEnabled()
{
    return true;
}

std::vector<Rank>
heldRanksForTest()
{
    std::vector<Rank> ranks;
    for (const Mutex *mutex : heldStack())
        ranks.push_back(mutex->rank());
    return ranks;
}

namespace detail {

void
noteAcquire(const Mutex &mutex)
{
    std::vector<const Mutex *> &stack = heldStack();
    // The order is total and strict: every held mutex must outrank
    // the one being acquired. Checking the whole stack (not just the
    // most recent) keeps the verdict exact even after out-of-order
    // releases have left the stack non-monotonic.
    for (const Mutex *held : stack) {
        if (held == &mutex)
            abortRankViolation("reentrant acquire", mutex, *held);
        if (held->rank() == mutex.rank())
            abortRankViolation("same-rank acquire", mutex, *held);
        if (held->rank() < mutex.rank())
            abortRankViolation("out-of-order acquire", mutex, *held);
    }
    stack.push_back(&mutex);
}

void
noteRelease(const Mutex &mutex)
{
    std::vector<const Mutex *> &stack = heldStack();
    for (size_t i = stack.size(); i-- > 0;) {
        if (stack[i] == &mutex) {
            stack.erase(stack.begin() +
                        static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
    std::fprintf(stderr,
                 "sync: releasing '%s' (rank %s) which this thread "
                 "does not hold\n",
                 mutex.name(), rankName(mutex.rank()));
    std::fflush(stderr);
    std::abort();
}

} // namespace detail

#endif // NDEBUG

} // namespace dnastore::sync
