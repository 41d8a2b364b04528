/**
 * @file
 * Self-test of the benchmark's own arithmetic (stats.h): the
 * percentile rule with failures as misses, the ten-samples-beyond
 * requirement, and self time over overlapping child spans. run.py
 * runs it before every benchmark run; a failure aborts the run.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> values;
    for (size_t i = n; i >= 1; --i)  // unsorted on purpose
        values.push_back(static_cast<double>(i));
    return values;
}

void
testPercentile()
{
    using perfbench::percentile;
    check(percentile(oneTo(100), 0, 0.5) == 50.0, "p50 of 1..100");
    check(percentile(oneTo(100), 0, 0.9) == 90.0, "p90 of 1..100");
    check(percentile(oneTo(5), 0, 0.5) == 3.0, "p50 of 1..5");
    check(percentile({7.0}, 0, 0.9) == 7.0, "p90 of one sample");
    check(std::isnan(percentile({}, 0, 0.5)), "no samples is NaN");

    // Failures rank above every latency.
    check(percentile(oneTo(95), 5, 0.9) == 90.0,
          "p90 below the failures");
    check(std::isinf(percentile(oneTo(89), 11, 0.9)),
          "p90 landing on a failure is a miss");
    check(std::isinf(percentile({}, 3, 0.5)), "all failed is a miss");
    check(percentile(oneTo(60), 40, 0.5) == 50.0,
          "failures shift the median up");

    // Ten samples must lie beyond a reported percentile.
    using perfbench::resolvable;
    check(resolvable(100, 0.9), "p90 of 100 has 10 beyond");
    check(!resolvable(99, 0.9), "p90 of 99 has 9 beyond");
    check(resolvable(1000, 0.99), "p99 of 1000 has 10 beyond");
    check(!resolvable(999, 0.99), "p99 of 999 has 9 beyond");
    check(!resolvable(0, 0.5), "nothing is resolvable from 0");
}

void
testSelfTime()
{
    using perfbench::Interval;
    using perfbench::selfUs;
    check(selfUs({0, 100}, {}) == 100, "leaf self time");
    check(selfUs({0, 100}, {{10, 20}, {30, 50}}) == 70,
          "disjoint children");
    // Overlapping children (parallel pool work) count once.
    check(selfUs({0, 100}, {{10, 40}, {20, 50}, {25, 30}}) == 60,
          "overlapping children");
    check(selfUs({0, 100}, {{10, 40}, {40, 60}}) == 50,
          "abutting children");
    // Children are clipped to the parent's interval.
    check(selfUs({10, 100}, {{0, 20}, {90, 120}}) == 70,
          "children beyond the parent");
    check(selfUs({0, 100}, {{0, 100}, {5, 95}}) == 0,
          "fully covered parent");
    check(selfUs({50, 60}, {{0, 10}}) == 10, "disjoint child ignored");
    check(selfUs({0, 100}, {{30, 20}}) == 100, "inverted child ignored");
}

} // namespace

int
main()
{
    testPercentile();
    testSelfTime();
    if (failures > 0)
        return 1;
    std::printf("perfbench selftest: ok\n");
    return 0;
}
