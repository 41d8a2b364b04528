/**
 * @file
 * The benchmark's own arithmetic: the percentile rule and span self
 * time. Header-only and free of dnastore types so selftest.cc can pin
 * it without linking the library.
 */

#ifndef DNASTORE_PERFBENCH_STATS_H
#define DNASTORE_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/** Samples a percentile must leave above it before it is reported. */
inline constexpr size_t kMinSamplesBeyond = 10;

/** 1-based nearest rank of the q-quantile among n samples. */
inline size_t
nearestRank(size_t n, double q)
{
    // The epsilon keeps q * n that should be whole (0.9 * 100) from
    // rounding up past it.
    const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

/**
 * Nearest-rank q-quantile of @p ok latencies together with @p failed
 * operations, each of which counts as a miss: it ranks above every
 * latency (+inf), so a quantile that lands on a failure is +inf. NaN
 * when there are no samples at all.
 */
inline double
percentile(std::vector<double> ok, size_t failed, double q)
{
    const size_t n = ok.size() + failed;
    if (n == 0)
        return std::numeric_limits<double>::quiet_NaN();
    const size_t rank = nearestRank(n, q);
    if (rank > ok.size())
        return std::numeric_limits<double>::infinity();
    std::nth_element(ok.begin(), ok.begin() + (rank - 1), ok.end());
    return ok[rank - 1];
}

/** Median of plain values (no failures); NaN when empty. */
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0, 0.5);
}

/** Whether n samples leave at least kMinSamplesBeyond above the
 *  q-quantile, so that quantile may be reported. */
inline bool
resolvable(size_t n, double q)
{
    return n > 0 && n - nearestRank(n, q) >= kMinSamplesBeyond;
}

/** A span's [start, end) in microseconds. */
struct Interval
{
    uint64_t start = 0;
    uint64_t end = 0;
};

/** Microseconds of @p parent covered by the union of @p children,
 *  each clipped to the parent (overlapping children count once). */
inline uint64_t
coveredUs(Interval parent, std::vector<Interval> children)
{
    for (Interval &child : children) {
        child.start = std::max(child.start, parent.start);
        child.end = std::min(child.end, parent.end);
    }
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    uint64_t covered = 0;
    uint64_t reach = parent.start;  // end of the union so far
    for (const Interval &child : children) {
        if (child.end <= child.start || child.end <= reach)
            continue;
        covered += child.end - std::max(child.start, reach);
        reach = child.end;
    }
    return covered;
}

/** A span's self time: its duration minus what its children cover. */
inline uint64_t
selfUs(Interval parent, std::vector<Interval> children)
{
    const uint64_t duration =
        parent.end > parent.start ? parent.end - parent.start : 0;
    return duration - coveredUs(parent, std::move(children));
}

} // namespace perfbench

#endif // DNASTORE_PERFBENCH_STATS_H
