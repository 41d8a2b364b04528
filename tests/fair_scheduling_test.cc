/**
 * @file
 * Per-tenant fair-scheduling contract tests for DecodeService.
 *
 * Everything here is asserted exactly, not statistically: the
 * SchedulerHarness scripts a contended backlog against a paused
 * dispatcher and a virtual clock, so WDRR dispatch sequences, token
 * bucket refill decisions, and starvation bounds are literal
 * expectations that hold for any service pool size.
 *
 * Pinned contracts:
 *  - WDRR ratio: weights 1:1, 3:1, and 1:2:4 yield exactly those
 *    dispatch ratios under saturation, for service threads {1,2,8};
 *  - token bucket: starts full, refills at `rate` on the service
 *    clock, all-or-nothing per batch, zero-burst admits nothing,
 *    burst beyond the queue depth throttles nothing (the depth stage
 *    sheds with Overloaded instead, and those tokens stay spent);
 *  - starvation-freedom: a flooding tenant delays others by at most
 *    one WDRR round;
 *  - backward compat: the default tenant alone is plain FIFO with
 *    the pre-tenant metric set and byte-identical real decodes.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <thread>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/decode_service.h"
#include "sim/synthesis.h"
#include "support/fixtures.h"
#include "support/scheduler_harness.h"

namespace dnastore::core {
namespace {

using test::DispatchRecord;
using test::SchedulerHarness;

/** All suites share the canonical partition + decoder through
 *  test::SchedulerFixture instead of re-wiring clock_us/on_dispatch
 *  by hand (see tests/support/scheduler_harness.h). */
using FairSchedulingTest = test::SchedulerFixture;

TEST_F(FairSchedulingTest, EqualWeightsAlternateStrictly)
{
    DecodeServiceParams params;
    params.threads = 2;
    params.tenants[1].weight = 1;
    params.tenants[2].weight = 1;
    SchedulerHarness &harness = this->harness(params);

    constexpr size_t kEach = 6;
    for (size_t i = 0; i < kEach; ++i)
        harness.submitOne(1);
    for (size_t i = 0; i < kEach; ++i)
        harness.submitOne(2);
    harness.resume();
    harness.drain();

    std::vector<DispatchRecord> seq = harness.dispatches();
    ASSERT_EQ(seq.size(), 2 * kEach);
    // Tenant 1 activated first, so the round order is 1,2,1,2,...
    for (size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(seq[i].tenant, i % 2 == 0 ? 1u : 2u)
            << "position " << i;
}

TEST_F(FairSchedulingTest, ThreeToOneWeightsDispatchThreeToOne)
{
    // The acceptance pin: saturating 2-tenant load, weights 3:1,
    // dispatch counts 3:1 exact (±1 batch) for pool sizes {1,2,8}.
    for (size_t threads : {1u, 2u, 8u}) {
        DecodeServiceParams params;
        params.threads = threads;
        params.tenants[1].weight = 3;
        params.tenants[2].weight = 1;
        SchedulerHarness &harness = this->harness(params);

        constexpr size_t kHeavy = 12;
        constexpr size_t kLight = 4;
        for (size_t i = 0; i < kHeavy; ++i)
            harness.submitOne(1);
        for (size_t i = 0; i < kLight; ++i)
            harness.submitOne(2);
        harness.resume();
        harness.drain();

        std::vector<DispatchRecord> seq = harness.dispatches();
        ASSERT_EQ(seq.size(), kHeavy + kLight) << "threads=" << threads;

        // Literal round structure: 3 heavy then 1 light, repeated.
        for (size_t i = 0; i < seq.size(); ++i)
            EXPECT_EQ(seq[i].tenant, i % 4 == 3 ? 2u : 1u)
                << "threads=" << threads << " position " << i;

        // The acceptance criterion as stated: in every saturated
        // prefix, per-tenant dispatch counts match 3:1 within ±1
        // batch of the light tenant's share.
        size_t heavy = 0;
        size_t light = 0;
        for (size_t i = 0; i < seq.size(); ++i) {
            heavy += seq[i].tenant == 1 ? 1 : 0;
            light += seq[i].tenant == 2 ? 1 : 0;
            const double expected_light =
                static_cast<double>(heavy) / 3.0;
            EXPECT_LE(
                std::abs(static_cast<double>(light) - expected_light),
                1.0)
                << "threads=" << threads << " prefix " << i;
        }
    }
}

TEST_F(FairSchedulingTest, OneTwoFourWeightsDispatchOneTwoFour)
{
    DecodeServiceParams params;
    params.threads = 4;
    params.tenants[1].weight = 1;
    params.tenants[2].weight = 2;
    params.tenants[3].weight = 4;
    SchedulerHarness &harness = this->harness(params);

    constexpr size_t kRounds = 4;
    for (size_t i = 0; i < 1 * kRounds; ++i)
        harness.submitOne(1);
    for (size_t i = 0; i < 2 * kRounds; ++i)
        harness.submitOne(2);
    for (size_t i = 0; i < 4 * kRounds; ++i)
        harness.submitOne(3);
    harness.resume();
    harness.drain();

    // Each WDRR round serves 1, 2, 2, 3, 3, 3, 3 in activation
    // order; kRounds full rounds drain the backlog exactly.
    const std::vector<TenantId> round = {1, 2, 2, 3, 3, 3, 3};
    std::vector<DispatchRecord> seq = harness.dispatches();
    ASSERT_EQ(seq.size(), round.size() * kRounds);
    for (size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(seq[i].tenant, round[i % round.size()])
            << "position " << i;
}

TEST_F(FairSchedulingTest, TokenBucketRefillsExactlyOnVirtualClock)
{
    DecodeServiceParams params;
    params.threads = 2;
    params.tenants[7].rate = 1.0;   // one request per second
    params.tenants[7].burst = 2.0;  // starts full with two
    SchedulerHarness &harness = this->harness(params);
    // Bucket decisions are made at submit time against the virtual
    // clock; the dispatcher can run freely without perturbing them.
    harness.resume();

    // t = 0: the bucket holds exactly its burst.
    size_t first = harness.submitOne(7);
    size_t second = harness.submitOne(7);
    size_t dry = harness.submitOne(7);
    EXPECT_EQ(harness.statusOf(first), DecodeStatus::Ok)
        << "bucket starts full";
    EXPECT_EQ(harness.statusOf(second), DecodeStatus::Ok);
    EXPECT_EQ(harness.statusOf(dry), DecodeStatus::Throttled);

    // One microsecond short of a full token: still throttled.
    harness.clock().advanceUs(999'999);
    EXPECT_EQ(harness.statusOf(harness.submitOne(7)),
              DecodeStatus::Throttled);

    // The last microsecond completes the token.
    harness.clock().advanceUs(1);
    EXPECT_EQ(harness.statusOf(harness.submitOne(7)),
              DecodeStatus::Ok);

    // A long idle period caps at burst, never beyond.
    harness.clock().advanceUs(10'000'000);
    EXPECT_EQ(harness.statusOf(harness.submitOne(7)),
              DecodeStatus::Ok);
    EXPECT_EQ(harness.statusOf(harness.submitOne(7)),
              DecodeStatus::Ok);
    EXPECT_EQ(harness.statusOf(harness.submitOne(7)),
              DecodeStatus::Throttled);
    harness.drain();
}

TEST_F(FairSchedulingTest, ZeroBurstAdmitsNothing)
{
    telemetry::MetricsRegistry registry;
    DecodeServiceParams params;
    params.threads = 1;
    params.metrics = &registry;
    params.tenants[3].rate = 5.0;
    params.tenants[3].burst = 0.0;  // a rate with nowhere to pool
    SchedulerHarness &harness = this->harness(params);

    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(harness.statusOf(harness.submitOne(3)),
                  DecodeStatus::Throttled);
    // No amount of refill helps: the bucket caps at zero capacity.
    harness.clock().advanceUs(60'000'000);
    EXPECT_EQ(harness.statusOf(harness.submitOne(3)),
              DecodeStatus::Throttled);

    // The default tenant on the same service is untouched.
    size_t ok = harness.submitOne(kDefaultTenant);
    harness.resume();
    EXPECT_EQ(harness.statusOf(ok), DecodeStatus::Ok);
    harness.drain();

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.3.requests_throttled"),
        4u);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.3.requests_admitted"),
        0u);
    EXPECT_EQ(snap.counters.at("decode_service.requests_throttled"),
              4u);
}

TEST_F(FairSchedulingTest, BurstBeyondQueueDepthShedsAsOverloadedNotThrottled)
{
    DecodeServiceParams params;
    params.threads = 1;
    params.max_queue_depth = 2;
    params.overflow = OverflowPolicy::Reject;
    params.tenants[4].burst = 8.0;  // more tokens than queue slots
    SchedulerHarness &harness = this->harness(params);

    // All four pass the bucket (8 tokens); the depth stage admits
    // two and sheds two — as Overloaded, not Throttled. Shed futures
    // resolve immediately; the admitted ones are only awaited after
    // the paused dispatcher is released.
    size_t first = harness.submitOne(4);
    size_t kept = harness.submitOne(4);
    size_t shed_a = harness.submitOne(4);
    size_t shed_b = harness.submitOne(4);
    EXPECT_EQ(harness.statusOf(shed_a), DecodeStatus::Overloaded);
    EXPECT_EQ(harness.statusOf(shed_b), DecodeStatus::Overloaded);

    harness.resume();
    EXPECT_EQ(harness.statusOf(first), DecodeStatus::Ok);
    EXPECT_EQ(harness.statusOf(kept), DecodeStatus::Ok);
    harness.drain();

    // The two overload-shed batches still spent their tokens
    // (shedding is load, too): with rate 0 only 4 of the original 8
    // remain, so four more submissions drain the bucket dry and the
    // ninth overall is throttled.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(harness.statusOf(harness.submitOne(4)),
                  DecodeStatus::Ok)
            << "token " << i;
    EXPECT_EQ(harness.statusOf(harness.submitOne(4)),
              DecodeStatus::Throttled);
}

TEST_F(FairSchedulingTest, FloodingTenantCannotStarveOthers)
{
    DecodeServiceParams params;
    params.threads = 2;
    params.tenants[1].weight = 4;  // the flood gets MORE weight
    params.tenants[2].weight = 1;
    SchedulerHarness &harness = this->harness(params);

    constexpr size_t kFlood = 40;
    for (size_t i = 0; i < kFlood; ++i)
        harness.submitOne(1);
    size_t victim_a = harness.submitOne(2);
    size_t victim_b = harness.submitOne(2);
    harness.resume();
    harness.drain();
    EXPECT_EQ(harness.statusOf(victim_a), DecodeStatus::Ok);
    EXPECT_EQ(harness.statusOf(victim_b), DecodeStatus::Ok);

    // The victim is served once per round: its two batches land at
    // positions 4 and 9 of the dispatch order, never later — a
    // 40-deep flood delays it by exactly one weight-4 turn.
    std::vector<DispatchRecord> seq = harness.dispatches();
    ASSERT_EQ(seq.size(), kFlood + 2);
    std::vector<size_t> victim_positions;
    for (size_t i = 0; i < seq.size(); ++i)
        if (seq[i].tenant == 2)
            victim_positions.push_back(i);
    ASSERT_EQ(victim_positions.size(), 2u);
    EXPECT_EQ(victim_positions[0], 4u);
    EXPECT_EQ(victim_positions[1], 9u);
}

TEST_F(FairSchedulingTest, PerTenantQueueDepthCapRejectsOnlyThatTenant)
{
    telemetry::MetricsRegistry registry;
    DecodeServiceParams params;
    params.threads = 1;
    params.overflow = OverflowPolicy::Reject;
    params.metrics = &registry;
    params.tenants[5].max_queue_depth = 1;
    params.tenants[6].weight = 1;
    SchedulerHarness &harness = this->harness(params);

    size_t capped = harness.submitOne(5);
    size_t over = harness.submitOne(5);   // tenant 5 is at its cap
    size_t other = harness.submitOne(6);  // tenant 6 is not
    EXPECT_EQ(harness.statusOf(over), DecodeStatus::Overloaded);

    harness.resume();
    EXPECT_EQ(harness.statusOf(capped), DecodeStatus::Ok);
    EXPECT_EQ(harness.statusOf(other), DecodeStatus::Ok);
    harness.drain();

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.5.requests_rejected"),
        1u);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.6.requests_rejected"),
        0u);

    // A batch that can never fit the tenant cap fails loudly at the
    // call site instead of wedging forever.
    std::vector<DecodeRequest> batch(2);
    for (DecodeRequest &request : batch) {
        request.decoder = &harness.decoder();
        request.tenant = 5;
    }
    EXPECT_THROW(harness.service().submitBatch(std::move(batch)),
                 FatalError);
}

TEST_F(FairSchedulingTest, MixedTenantBatchThrows)
{
    SchedulerHarness &harness = this->harness({});
    std::vector<DecodeRequest> batch(2);
    batch[0].decoder = &harness.decoder();
    batch[0].tenant = 1;
    batch[1].decoder = &harness.decoder();
    batch[1].tenant = 2;
    EXPECT_THROW(harness.service().submitBatch(std::move(batch)),
                 FatalError);
    harness.resume();
}

TEST_F(FairSchedulingTest, ZeroWeightTenantIsRejectedAtConstruction)
{
    DecodeServiceParams params;
    params.tenants[1].weight = 0;
    EXPECT_THROW(DecodeService service(params), FatalError);
}

TEST_F(FairSchedulingTest, DefaultTenantAloneStaysFifoWithLegacyMetrics)
{
    telemetry::MetricsRegistry registry;
    DecodeServiceParams params;
    params.threads = 2;
    params.metrics = &registry;
    SchedulerHarness &harness = this->harness(params);

    constexpr size_t kSubmissions = 6;
    for (size_t i = 0; i < kSubmissions; ++i)
        harness.submitOne(kDefaultTenant);
    harness.resume();
    harness.drain();

    // One queue, weight 1: WDRR degenerates to FIFO.
    std::vector<DispatchRecord> seq = harness.dispatches();
    ASSERT_EQ(seq.size(), kSubmissions);
    for (size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].tenant, kDefaultTenant);
        EXPECT_EQ(seq[i].requests, 1u);
    }

    // The unconfigured default tenant exports exactly the pre-tenant
    // metric set: no decode_service.tenant.* instruments appear.
    telemetry::MetricsSnapshot snap = registry.snapshot();
    for (const auto &[name, value] : snap.counters) {
        (void)value;
        EXPECT_EQ(name.find("decode_service.tenant."),
                  std::string::npos)
            << name;
    }
    for (const auto &[name, histogram] : snap.histograms) {
        (void)histogram;
        EXPECT_EQ(name.find("decode_service.tenant."),
                  std::string::npos)
            << name;
    }
    EXPECT_EQ(snap.counters.at("decode_service.requests_submitted"),
              kSubmissions);
    EXPECT_EQ(snap.counters.at("decode_service.requests_decoded"),
              kSubmissions);
    EXPECT_EQ(snap.counters.at("decode_service.requests_throttled"),
              0u);
}

TEST_F(FairSchedulingTest, PerTenantCountersAndLatencyHistograms)
{
    telemetry::MetricsRegistry registry;
    DecodeServiceParams params;
    params.threads = 2;
    params.metrics = &registry;
    params.tenants[1].weight = 2;
    params.tenants[2].burst = 1.0;
    SchedulerHarness &harness = this->harness(params);

    for (int i = 0; i < 3; ++i)
        harness.submitOne(1);
    harness.submitOne(2);                    // spends the only token
    size_t throttled = harness.submitOne(2);
    EXPECT_EQ(harness.statusOf(throttled), DecodeStatus::Throttled);
    harness.resume();
    harness.drain();

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.1.requests_admitted"),
        3u);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.1.batches_dispatched"),
        3u);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.1.requests_throttled"),
        0u);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.2.requests_admitted"),
        1u);
    EXPECT_EQ(
        snap.counters.at("decode_service.tenant.2.requests_throttled"),
        1u);
    EXPECT_EQ(
        snap.histograms.at("decode_service.tenant.1.queue_latency_us")
            .count,
        3u);
    EXPECT_EQ(
        snap.histograms.at("decode_service.tenant.2.queue_latency_us")
            .count,
        1u);
    // The global view still sums every tenant.
    EXPECT_EQ(snap.counters.at("decode_service.requests_submitted"),
              4u);
    EXPECT_EQ(snap.counters.at("decode_service.requests_throttled"),
              1u);
}

/** Real-decode backward compat: tenancy schedules work, it never
 *  changes what a decode returns. One small partition, real noisy
 *  reads, outcomes pinned against sequential decodeAll for two
 *  tenants and the default, across pool sizes. */
TEST_F(FairSchedulingTest, RealDecodesAreByteIdenticalUnderTenancy)
{
    constexpr size_t kBlocks = 3;
    constexpr size_t kCoverage = 14;

    const test::PrimerPair &primers = test::primerPair(1);
    Partition partition(test::partitionConfig(1), primers.forward,
                        primers.reverse, 21);
    Bytes data = test::corpusBlocks(kBlocks, test::kTestSeed + 21);
    sim::SynthesisParams synthesis;
    synthesis.seed = 2100;
    sim::Pool pool = sim::synthesize(partition.encodeFile(data),
                                     synthesis);
    sim::SequencerParams sequencer;
    sequencer.sub_rate = 0.01;
    sequencer.ins_rate = 0.002;
    sequencer.del_rate = 0.002;
    sequencer.seed = 47;
    std::vector<sim::Read> reads = sim::sequencePool(
        pool, kBlocks * partition.config().rs_n * kCoverage,
        sequencer);

    DecoderParams decoder_params;
    Decoder decoder(partition, decoder_params);
    ThreadPool sequential(1);
    DecodeOutcome golden;
    golden.units = decoder.decodeAll(reads, &golden.stats, sequential);

    for (size_t threads : {1u, 2u, 8u}) {
        DecodeServiceParams params;
        params.threads = threads;
        params.tenants[1].weight = 3;
        params.tenants[2].weight = 1;
        DecodeService service(params);
        for (TenantId tenant : {kDefaultTenant, TenantId{1},
                                TenantId{2}}) {
            DecodeOutcome outcome =
                service.submit(decoder, reads, tenant).get();
            EXPECT_EQ(outcome, golden)
                << "threads=" << threads << " tenant=" << tenant;
        }
    }
}

/** Pin: shutdown() while the dispatcher is paused and Block-policy
 *  submitters are parked in the ticket line. Every parked waiter is
 *  woken and fails with FatalError (never admitted, never hung), the
 *  already-admitted backlog still drains to completion, and the
 *  ticket line ends empty. */
TEST_F(FairSchedulingTest, ShutdownWhilePausedReleasesParkedSubmitters)
{
    const Decoder &decoder = this->decoder();

    DecodeServiceParams params;
    params.threads = 2;
    params.max_queue_depth = 2;
    params.overflow = OverflowPolicy::Block;
    params.start_paused = true;
    DecodeService service(params);

    // Fill the queue while nothing dispatches.
    std::future<DecodeOutcome> first = service.submit(decoder, {});
    std::future<DecodeOutcome> second = service.submit(decoder, {});
    ASSERT_EQ(service.inFlightRequests(), 2u);

    constexpr size_t kParked = 3;
    std::atomic<size_t> failures{0};
    std::vector<std::thread> parked;
    for (size_t w = 0; w < kParked; ++w) {
        parked.emplace_back([&] {
            try {
                service.submit(decoder, {});
            } catch (const FatalError &) {
                failures.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (service.blockedSubmitters() < kParked &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
    }
    ASSERT_EQ(service.blockedSubmitters(), kParked);

    // With dispatch paused no slot can free before shutdown lands,
    // so every waiter's wake reason is deterministically
    // !accepting_: all three must fail, none may be admitted.
    service.shutdown();
    for (std::thread &waiter : parked)
        waiter.join();
    EXPECT_EQ(failures.load(), kParked);
    EXPECT_EQ(service.blockedSubmitters(), 0u);

    // The admitted backlog drained instead of being dropped.
    EXPECT_EQ(first.get().status, DecodeStatus::Ok);
    EXPECT_EQ(second.get().status, DecodeStatus::Ok);
}

} // namespace
} // namespace dnastore::core
