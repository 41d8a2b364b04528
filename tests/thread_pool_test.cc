/**
 * @file
 * Tests for the fork-join thread pool: completeness (every index runs
 * exactly once), determinism of parallelMap slot order, pool reuse,
 * exception propagation, the inline sequential paths, and the
 * multi-job surface (concurrent parallelFor calls from several
 * threads, nested fork-join from inside a job body) that the
 * DecodeService's cross-partition sharding builds on.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/thread_pool.h"

namespace dnastore {
namespace {

TEST(ThreadPoolTest, ResolveThreadCount)
{
    EXPECT_GE(ThreadPool::resolveThreadCount(0), 1u);
    EXPECT_EQ(ThreadPool::resolveThreadCount(1), 1u);
    EXPECT_EQ(ThreadPool::resolveThreadCount(5), 5u);
}

TEST(ThreadPoolTest, SharedPoolIsOneHardwareSizedInstance)
{
    ThreadPool &shared = ThreadPool::shared();
    EXPECT_EQ(&ThreadPool::shared(), &shared);
    EXPECT_EQ(shared.threadCount(), ThreadPool::resolveThreadCount(0));
}

TEST(ThreadPoolTest, SizeOnePoolSpawnsNoWorkers)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    size_t ran = 0;
    pool.parallelFor(10, [&](size_t) { ++ran; });
    EXPECT_EQ(ran, 10u);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    const size_t n = 10000;
    std::vector<std::atomic<int>> counts(n);
    pool.parallelFor(n, [&](size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, EmptyAndSingleIteration)
{
    ThreadPool pool(3);
    size_t ran = 0;
    pool.parallelFor(0, [&](size_t) { ++ran; });
    EXPECT_EQ(ran, 0u);
    // n == 1 runs inline on the caller, no cross-thread writes.
    pool.parallelFor(1, [&](size_t) { ++ran; });
    EXPECT_EQ(ran, 1u);
}

TEST(ThreadPoolTest, FewerIterationsThanThreads)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> counts(3);
    pool.parallelFor(3, [&](size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs)
{
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::vector<uint8_t> hit(97, 0);
        pool.parallelFor(hit.size(), [&](size_t i) { hit[i] = 1; });
        for (size_t i = 0; i < hit.size(); ++i)
            ASSERT_EQ(hit[i], 1) << "round " << round;
    }
}

TEST(ThreadPoolTest, ParallelMapSlotsFollowIndexOrder)
{
    ThreadPool pool(4);
    std::vector<uint64_t> out = pool.parallelMap<uint64_t>(
        1000, [](size_t i) { return uint64_t{i} * i; });
    ASSERT_EQ(out.size(), 1000u);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], uint64_t{i} * i);
}

TEST(ThreadPoolTest, ParallelMapMatchesSequential)
{
    auto fn = [](size_t i) { return (uint64_t{i} * 2654435761u) ^ i; };
    ThreadPool parallel(7);
    ThreadPool sequential(1);
    EXPECT_EQ(parallel.parallelMap<uint64_t>(5000, fn),
              sequential.parallelMap<uint64_t>(5000, fn));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(1000,
                                  [](size_t i) {
                                      if (i == 137)
                                          fatal("boom at ", i);
                                  }),
                 FatalError);
    // The pool survives a failed job.
    std::vector<uint8_t> hit(10, 0);
    pool.parallelFor(hit.size(), [&](size_t i) { hit[i] = 1; });
    for (uint8_t h : hit)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ConcurrentJobsFromMultipleSubmitters)
{
    // Several threads fork jobs on one shared pool at once; every
    // job must complete exactly its own index set.
    ThreadPool pool(4);
    constexpr size_t kSubmitters = 6;
    constexpr size_t kRounds = 20;
    constexpr size_t kIndices = 257;
    std::vector<std::vector<std::atomic<int>>> counts(kSubmitters);
    for (auto &slot : counts)
        slot = std::vector<std::atomic<int>>(kIndices);

    std::vector<std::thread> submitters;
    for (size_t s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&, s] {
            for (size_t round = 0; round < kRounds; ++round) {
                pool.parallelFor(kIndices, [&, s](size_t i) {
                    counts[s][i].fetch_add(
                        1, std::memory_order_relaxed);
                });
            }
        });
    }
    for (std::thread &submitter : submitters)
        submitter.join();
    for (size_t s = 0; s < kSubmitters; ++s) {
        for (size_t i = 0; i < kIndices; ++i) {
            ASSERT_EQ(counts[s][i].load(),
                      static_cast<int>(kRounds))
                << "submitter " << s << " index " << i;
        }
    }
}

TEST(ThreadPoolTest, NestedParallelForOnSamePool)
{
    // A job body forking on its own pool is the DecodeService
    // sharding pattern: outer = per-partition jobs, inner = decode
    // stages. Every (outer, inner) pair must run exactly once.
    ThreadPool pool(4);
    constexpr size_t kOuter = 12;
    constexpr size_t kInner = 64;
    std::vector<std::vector<std::atomic<int>>> counts(kOuter);
    for (auto &slot : counts)
        slot = std::vector<std::atomic<int>>(kInner);

    pool.parallelFor(kOuter, [&](size_t o) {
        pool.parallelFor(kInner, [&, o](size_t i) {
            counts[o][i].fetch_add(1, std::memory_order_relaxed);
        });
    });
    for (size_t o = 0; o < kOuter; ++o)
        for (size_t i = 0; i < kInner; ++i)
            ASSERT_EQ(counts[o][i].load(), 1)
                << "outer " << o << " inner " << i;
}

TEST(ThreadPoolTest, NestedExceptionReachesOuterBody)
{
    // An inner job's failure rethrows inside the outer body; when the
    // outer body lets it escape, the outer caller sees it, and jobs
    // that already ran are unaffected.
    ThreadPool pool(3);
    std::atomic<int> clean_outers{0};
    EXPECT_THROW(
        pool.parallelFor(8,
                         [&](size_t o) {
                             pool.parallelFor(16, [&](size_t i) {
                                 if (o == 3 && i == 7)
                                     fatal("inner boom");
                             });
                             clean_outers.fetch_add(
                                 1, std::memory_order_relaxed);
                         }),
        FatalError);
    EXPECT_LT(clean_outers.load(), 8);

    // The pool stays serviceable after the nested failure.
    std::vector<uint8_t> hit(40, 0);
    pool.parallelFor(hit.size(), [&](size_t i) { hit[i] = 1; });
    for (uint8_t h : hit)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ConcurrentJobFailureIsIsolated)
{
    // One submitter's exception must not leak into a concurrent
    // submitter's job on the same pool.
    ThreadPool pool(4);
    for (int round = 0; round < 10; ++round) {
        std::vector<std::atomic<int>> counts(300);
        std::thread failing([&] {
            EXPECT_THROW(pool.parallelFor(300,
                                          [](size_t i) {
                                              if (i == 100)
                                                  fatal("boom");
                                          }),
                         FatalError);
        });
        pool.parallelFor(counts.size(), [&](size_t i) {
            counts[i].fetch_add(1, std::memory_order_relaxed);
        });
        failing.join();
        for (size_t i = 0; i < counts.size(); ++i)
            ASSERT_EQ(counts[i].load(), 1) << "round " << round;
    }
}

TEST(ThreadPoolTest, NullPoolHelperRunsInline)
{
    std::vector<uint8_t> hit(25, 0);
    parallelFor(nullptr, hit.size(), [&](size_t i) { hit[i] = 1; });
    for (uint8_t h : hit)
        EXPECT_EQ(h, 1);

    ThreadPool pool(2);
    std::fill(hit.begin(), hit.end(), 0);
    parallelFor(&pool, hit.size(), [&](size_t i) { hit[i] = 1; });
    for (uint8_t h : hit)
        EXPECT_EQ(h, 1);
}

} // namespace
} // namespace dnastore
