/**
 * @file
 * Workload generator + simulator contract tests.
 *
 * Two kinds of assertion:
 *  - generator statistics (zipfian skew, Poisson/on-off arrival
 *    rates, op-mix fractions) hold within tolerance — these guard
 *    the model, not the bits;
 *  - replay determinism is pinned EXACTLY: same seed ⇒ identical
 *    trace, identical dispatch order, identical per-tenant SLO
 *    report (fingerprint equality of two in-process runs — never
 *    literal pins, which would couple the suite to libm), identical
 *    across service thread counts, and exact WDRR goodput ratios and
 *    latency quantiles for scripted saturation (no RNG, no FP).
 *
 * One case, ThreeClassReplayHoldsRecordedSlo, holds a seeded replay's
 * per-class goodput and p99 to recorded numbers within a tolerance
 * wide enough for that libm rounding.
 */

#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "support/fixtures.h"
#include "support/scheduler_harness.h"
#include "workload/generator.h"
#include "workload/simulator.h"
#include "workload/slo_report.h"
#include "workload/trace.h"

namespace dnastore::workload {
namespace {

WorkloadParams
smallMixedWorkload()
{
    WorkloadParams wp;
    wp.seed = 0xABCD'1234;
    wp.duration_us = 200'000;
    wp.objects = 100;
    wp.zipf_s = 0.99;

    TenantClass heavy;
    heavy.name = "heavy";
    heavy.count = 3;
    heavy.arrivals.rate_per_sec = 400.0;
    heavy.admission.weight = 4;
    wp.classes.push_back(heavy);

    TenantClass standard;
    standard.name = "standard";
    standard.count = 10;
    standard.arrivals.rate_per_sec = 100.0;
    standard.mix = {0.8, 0.15, 0.05};
    wp.classes.push_back(standard);

    TenantClass bursty;
    bursty.name = "bursty";
    bursty.count = 5;
    bursty.arrivals.kind = ArrivalProcess::Kind::OnOff;
    bursty.arrivals.rate_per_sec = 500.0;
    bursty.arrivals.mean_on_us = 20'000;
    bursty.arrivals.mean_off_us = 60'000;
    bursty.admission.rate = 150.0;
    bursty.admission.burst = 20.0;
    wp.classes.push_back(bursty);
    return wp;
}

/** A 1 s mix of 4 heavy, 12 standard and 6 bursty tenants over 512
 *  zipfian objects. */
WorkloadParams
threeClassSloWorkload()
{
    WorkloadParams wp;
    wp.seed = 20260808;
    wp.duration_us = 1'000'000;
    wp.objects = 512;
    wp.zipf_s = 0.99;

    TenantClass heavy;
    heavy.name = "heavy";
    heavy.count = 4;
    heavy.arrivals.rate_per_sec = 300.0;
    heavy.mix = {0.9, 0.08, 0.02};
    heavy.admission.weight = 4;
    wp.classes.push_back(heavy);

    TenantClass standard;
    standard.name = "standard";
    standard.count = 12;
    standard.arrivals.rate_per_sec = 100.0;
    standard.mix = {0.8, 0.15, 0.05};
    wp.classes.push_back(standard);

    TenantClass bursty;
    bursty.name = "bursty";
    bursty.count = 6;
    bursty.arrivals.kind = ArrivalProcess::Kind::OnOff;
    bursty.arrivals.rate_per_sec = 400.0;
    bursty.arrivals.mean_on_us = 30'000;
    bursty.arrivals.mean_off_us = 90'000;
    bursty.admission.rate = 120.0;
    bursty.admission.burst = 20.0;
    wp.classes.push_back(bursty);
    return wp;
}

TEST(WorkloadGenTest, SameSeedSameTrace)
{
    const WorkloadParams wp = smallMixedWorkload();
    Trace a = generateTrace(wp);
    Trace b = generateTrace(wp);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_EQ(traceFingerprint(a), traceFingerprint(b));

    WorkloadParams other = wp;
    other.seed += 1;
    EXPECT_NE(traceFingerprint(generateTrace(other)),
              traceFingerprint(a));
}

TEST(WorkloadGenTest, TraceIsTotallyOrdered)
{
    Trace trace = generateTrace(smallMixedWorkload());
    std::map<core::TenantId, uint64_t> next_seq;
    for (size_t i = 1; i < trace.size(); ++i) {
        const TraceOp &prev = trace[i - 1];
        const TraceOp &cur = trace[i];
        EXPECT_TRUE(prev.arrival_us < cur.arrival_us ||
                    (prev.arrival_us == cur.arrival_us &&
                     (prev.tenant < cur.tenant ||
                      (prev.tenant == cur.tenant &&
                       prev.seq < cur.seq))))
            << "position " << i;
    }
    for (const TraceOp &op : trace)
        EXPECT_EQ(op.seq, next_seq[op.tenant]++)
            << "tenant " << op.tenant;
}

TEST(WorkloadGenTest, TenantIdsAreConsecutiveAcrossClasses)
{
    const WorkloadParams wp = smallMixedWorkload();
    const std::vector<core::TenantId> ids = tenantIds(wp);
    ASSERT_EQ(ids.size(), 18u);  // 3 + 10 + 5
    for (size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(ids[i], static_cast<core::TenantId>(i + 1));
    EXPECT_EQ(classTenantIds(wp, 0),
              (std::vector<core::TenantId>{1, 2, 3}));
    EXPECT_EQ(classTenantIds(wp, 2),
              (std::vector<core::TenantId>{14, 15, 16, 17, 18}));

    const auto admission = tenantAdmission(wp);
    EXPECT_EQ(admission.at(1).weight, 4u);
    EXPECT_EQ(admission.at(14).rate, 150.0);
    EXPECT_EQ(admission.count(0), 0u);  // default tenant never used
}

TEST(WorkloadGenTest, ZipfianSkewMatchesTheory)
{
    constexpr uint64_t kObjects = 100;
    constexpr size_t kDraws = 200'000;
    const ZipfianSampler zipf(kObjects, 0.99);
    Rng rng(Rng::deriveSeed(7, 7));
    std::vector<size_t> counts(kObjects, 0);
    for (size_t i = 0; i < kDraws; ++i)
        ++counts[zipf.sample(rng)];

    // The head ranks carry enough mass for a tight relative check.
    for (uint64_t k : {0u, 1u, 2u, 9u}) {
        const double expected = zipf.pmf(k) * kDraws;
        EXPECT_NEAR(static_cast<double>(counts[k]), expected,
                    0.10 * expected)
            << "rank " << k;
    }
    // Skew direction: the top rank dominates the tail decade.
    EXPECT_GT(counts[0], 10 * counts[99]);
    // Uniform (s = 0) sanity: pmf is flat.
    const ZipfianSampler flat(kObjects, 0.0);
    EXPECT_NEAR(flat.pmf(0), flat.pmf(99), 1e-9);
}

TEST(WorkloadGenTest, PoissonArrivalRateWithinTolerance)
{
    WorkloadParams wp;
    wp.seed = 99;
    wp.duration_us = 10'000'000;
    wp.objects = 10;
    TenantClass cls;
    cls.count = 1;
    cls.arrivals.rate_per_sec = 1'000.0;
    wp.classes.push_back(cls);

    const double n = static_cast<double>(generateTrace(wp).size());
    // Expect 10'000 ± 4σ (σ = 100).
    EXPECT_NEAR(n, 10'000.0, 400.0);
}

TEST(WorkloadGenTest, OnOffDutyCycleShapesLongRunRate)
{
    WorkloadParams wp;
    wp.seed = 123;
    wp.duration_us = 20'000'000;
    wp.objects = 10;
    TenantClass cls;
    cls.count = 1;
    cls.arrivals.kind = ArrivalProcess::Kind::OnOff;
    cls.arrivals.rate_per_sec = 2'000.0;
    cls.arrivals.mean_on_us = 50'000;
    cls.arrivals.mean_off_us = 150'000;
    wp.classes.push_back(cls);

    // Long-run rate = 2000 · 50/(50+150) = 500/s over 20 s = 10'000,
    // with cycle-level variance on ~100 cycles: ±15 %.
    const double n = static_cast<double>(generateTrace(wp).size());
    EXPECT_NEAR(n, 10'000.0, 1'500.0);
}

TEST(WorkloadGenTest, OpMixFractionsWithinTolerance)
{
    WorkloadParams wp;
    wp.seed = 5;
    wp.duration_us = 5'000'000;
    wp.objects = 10;
    TenantClass cls;
    cls.count = 4;
    cls.arrivals.rate_per_sec = 1'000.0;
    cls.mix = {0.5, 0.3, 0.2};
    wp.classes.push_back(cls);

    Trace trace = generateTrace(wp);
    ASSERT_GT(trace.size(), 10'000u);
    double reads = 0;
    double writes = 0;
    double updates = 0;
    for (const TraceOp &op : trace) {
        reads += op.type == OpType::Read ? 1 : 0;
        writes += op.type == OpType::Write ? 1 : 0;
        updates += op.type == OpType::Update ? 1 : 0;
    }
    const double n = static_cast<double>(trace.size());
    EXPECT_NEAR(reads / n, 0.5, 0.03);
    EXPECT_NEAR(writes / n, 0.3, 0.03);
    EXPECT_NEAR(updates / n, 0.2, 0.03);
}

TEST(WorkloadGenTest, MaxOpsTruncatesAfterSorting)
{
    WorkloadParams wp = smallMixedWorkload();
    Trace full = generateTrace(wp);
    wp.max_ops = 50;
    Trace capped = generateTrace(wp);
    ASSERT_EQ(capped.size(), 50u);
    // The cap keeps the earliest ops of the merged trace, not whole
    // tenants.
    for (size_t i = 0; i < capped.size(); ++i)
        EXPECT_EQ(capped[i], full[i]);
}

/** Simulator suites share the canonical decoder via the scheduler
 *  fixture (tests/support/scheduler_harness.h). */
class WorkloadSimTest : public test::SchedulerFixture
{
  protected:
    SimulatorParams
    virtualParams()
    {
        SimulatorParams sp;
        sp.clock = SimulatorParams::Clock::Virtual;
        sp.decoder = &decoder();
        sp.virtual_service_time_us = 500;
        sp.record_dispatches = true;
        return sp;
    }
};

TEST_F(WorkloadSimTest, VirtualReplayIsByteReproducible)
{
    const WorkloadParams wp = smallMixedWorkload();
    const SimulatorParams sp = virtualParams();
    SimResult a = runSimulation(wp, sp);
    SimResult b = runSimulation(wp, sp);

    ASSERT_GT(a.ops_submitted, 0u);
    EXPECT_EQ(a.trace_fingerprint, b.trace_fingerprint);
    EXPECT_EQ(a.report_fingerprint, b.report_fingerprint);
    EXPECT_EQ(a.report.tenants, b.report.tenants);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.end_clock_us, b.end_clock_us);
    // The whole metrics snapshot — every counter, every histogram
    // bucket — is byte-identical, not just the report's projection.
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.report_fingerprint, a.report.fingerprint());
}

TEST_F(WorkloadSimTest, VirtualReplayIdenticalAcrossServiceThreads)
{
    const WorkloadParams wp = smallMixedWorkload();
    SimulatorParams sp = virtualParams();
    sp.service_threads = 1;
    SimResult one = runSimulation(wp, sp);
    sp.service_threads = 4;
    SimResult four = runSimulation(wp, sp);

    EXPECT_EQ(one.report_fingerprint, four.report_fingerprint);
    EXPECT_EQ(one.dispatches, four.dispatches);
    EXPECT_EQ(one.metrics.histograms, four.metrics.histograms);
}

TEST_F(WorkloadSimTest, SaturatedWdrrDispatchMatchesWeightsExactly)
{
    // Scripted saturation: every op arrives at t = 0, weights 3:1,
    // so the dispatch order is the literal WDRR round pattern and
    // per-tenant dispatch counts split 3:1 in every full round. No
    // RNG and no floating point anywhere in this scenario.
    Trace trace;
    for (uint64_t i = 0; i < 24; ++i)
        trace.push_back(TraceOp{0, 1, 0, OpType::Read, i});
    for (uint64_t i = 0; i < 8; ++i)
        trace.push_back(TraceOp{0, 2, 0, OpType::Read, i});

    std::map<core::TenantId, core::TenantParams> admission;
    admission[1].weight = 3;
    admission[2].weight = 1;

    SimResult result = replayTrace(trace, admission, {1, 2},
                                   virtualParams());

    ASSERT_EQ(result.dispatches.size(), 32u);
    for (size_t i = 0; i < result.dispatches.size(); ++i)
        EXPECT_EQ(result.dispatches[i].tenant, i % 4 == 3 ? 2u : 1u)
            << "position " << i;

    ASSERT_EQ(result.report.tenants.size(), 2u);
    const TenantSlo &heavy = result.report.tenants[0];
    const TenantSlo &light = result.report.tenants[1];
    EXPECT_EQ(heavy.dispatched, 24u);
    EXPECT_EQ(light.dispatched, 8u);
    EXPECT_EQ(heavy.goodput(), 1.0);
    EXPECT_EQ(light.goodput(), 1.0);
}

TEST_F(WorkloadSimTest, ThrottledGoodputIsExact)
{
    // Burst 5, rate 0: exactly five of twenty offered requests admit
    // — goodput 0.25 with zero tolerance.
    Trace trace;
    for (uint64_t i = 0; i < 20; ++i)
        trace.push_back(TraceOp{0, 9, 0, OpType::Read, i});
    std::map<core::TenantId, core::TenantParams> admission;
    admission[9].burst = 5.0;
    admission[9].rate = 0.0;
    admission[9].weight = 1;

    SimResult result =
        replayTrace(trace, admission, {9}, virtualParams());
    ASSERT_EQ(result.report.tenants.size(), 1u);
    const TenantSlo &slo = result.report.tenants[0];
    EXPECT_EQ(slo.offered, 20u);
    EXPECT_EQ(slo.admitted, 5u);
    EXPECT_EQ(slo.throttled, 15u);
    EXPECT_EQ(slo.rejected, 0u);
    EXPECT_DOUBLE_EQ(slo.goodput(), 0.25);
}

TEST_F(WorkloadSimTest, ThreeClassReplayHoldsRecordedSlo)
{
    // The suite's one tolerance pin. The recorded numbers are the
    // per-class goodput and p99 queue latency of this replay
    // (400 us per request on the virtual clock) as the retired
    // three-class workload bench committed them from a 1-core
    // capture: goodput {1.0, 1.0, 0.8109}, p99 100,000 us for every
    // class. Its CI gate let goodput drop by 0.05 and p99 grow by
    // 25 %, and so does this case. The tolerance absorbs libm
    // rounding in the arrival-time exponentials, which can move an
    // arrival across a token refill or a histogram bucket on another
    // toolchain — the reason the header gives for pinning nothing
    // else literally.
    constexpr double kRecordedGoodput[] = {1.0, 1.0, 0.8109};
    constexpr double kRecordedP99Us = 100'000.0;
    constexpr double kGoodputDrop = 0.05;
    constexpr double kP99Growth = 1.25;

    const WorkloadParams wp = threeClassSloWorkload();
    SimulatorParams sp = virtualParams();
    sp.virtual_service_time_us = 400;
    const SimResult result = runSimulation(wp, sp);

    ASSERT_EQ(wp.classes.size(), std::size(kRecordedGoodput));
    for (size_t c = 0; c < wp.classes.size(); ++c) {
        SCOPED_TRACE(wp.classes[c].name);
        const TenantSlo slo =
            aggregateSlo(result.metrics, classTenantIds(wp, c),
                         static_cast<core::TenantId>(c));
        ASSERT_GT(slo.offered, 0u);
        EXPECT_GE(slo.goodput(), kRecordedGoodput[c] - kGoodputDrop);
        ASSERT_TRUE(slo.p99_us.has_value());
        EXPECT_LE(static_cast<double>(*slo.p99_us),
                  kP99Growth * kRecordedP99Us);
    }
}

TEST_F(WorkloadSimTest, QueueLatencyQuantilesAreExactUnderVirtualClock)
{
    // Ten requests at t = 0, service time 1 ms each: sojourn times
    // are exactly 1,2,...,10 ms. Under fineLatencyBoundsUs() the
    // rank-5 sample (p50) lands in the (2000, 5000] bucket and the
    // rank-10 sample (p99/p999) in (5000, 10000] — exact quantile
    // values, pinned literally.
    Trace trace;
    for (uint64_t i = 0; i < 10; ++i)
        trace.push_back(TraceOp{0, 1, 0, OpType::Read, i});
    std::map<core::TenantId, core::TenantParams> admission;
    admission[1].weight = 1;

    SimulatorParams sp = virtualParams();
    sp.virtual_service_time_us = 1'000;
    SimResult result = replayTrace(trace, admission, {1}, sp);

    ASSERT_EQ(result.report.tenants.size(), 1u);
    const TenantSlo &slo = result.report.tenants[0];
    EXPECT_EQ(slo.latency_count, 10u);
    ASSERT_TRUE(slo.p50_us.has_value());
    ASSERT_TRUE(slo.p99_us.has_value());
    ASSERT_TRUE(slo.p999_us.has_value());
    EXPECT_EQ(*slo.p50_us, 5'000u);
    EXPECT_EQ(*slo.p99_us, 10'000u);
    EXPECT_EQ(*slo.p999_us, 10'000u);
    EXPECT_EQ(result.end_clock_us, 10'000u);
}

TEST_F(WorkloadSimTest, SloReportMatchesRawCounters)
{
    const WorkloadParams wp = smallMixedWorkload();
    SimResult result = runSimulation(wp, virtualParams());

    for (const TenantSlo &slo : result.report.tenants) {
        const std::string prefix =
            "decode_service.tenant." + std::to_string(slo.tenant) +
            ".";
        EXPECT_EQ(slo.admitted, result.metrics.counters.at(
                                    prefix + "requests_admitted"));
        EXPECT_EQ(slo.throttled, result.metrics.counters.at(
                                     prefix + "requests_throttled"));
        EXPECT_EQ(slo.rejected, result.metrics.counters.at(
                                    prefix + "requests_rejected"));
        EXPECT_EQ(slo.offered,
                  slo.admitted + slo.throttled + slo.rejected);
        EXPECT_EQ(slo.latency_count,
                  result.metrics.histograms
                      .at(prefix + "queue_latency_us")
                      .count);
    }

    // Class aggregation sums its members' counters exactly.
    const std::vector<core::TenantId> heavy = classTenantIds(wp, 0);
    TenantSlo agg = aggregateSlo(result.metrics, heavy, 0);
    uint64_t admitted = 0;
    uint64_t latency = 0;
    for (core::TenantId tenant : heavy) {
        const TenantSlo &slo =
            result.report.tenants.at(tenant - 1);
        admitted += slo.admitted;
        latency += slo.latency_count;
    }
    EXPECT_EQ(agg.admitted, admitted);
    EXPECT_EQ(agg.latency_count, latency);
}

TEST_F(WorkloadSimTest, VirtualBlockPolicyWithBoundsIsRefused)
{
    Trace trace{TraceOp{0, 1, 0, OpType::Read, 0}};
    std::map<core::TenantId, core::TenantParams> admission;
    admission[1].weight = 1;

    SimulatorParams sp = virtualParams();
    sp.overflow = core::OverflowPolicy::Block;
    sp.max_queue_depth = 4;
    EXPECT_THROW(replayTrace(trace, admission, {1}, sp), FatalError);

    // Unbounded Block is fine (nothing can ever park).
    sp.max_queue_depth = 0;
    SimResult result = replayTrace(trace, admission, {1}, sp);
    EXPECT_EQ(result.ops_submitted, 1u);
}

TEST_F(WorkloadSimTest, FleetReplayDrivesRealFrontends)
{
    // Closed-loop wall-clock smoke: two tenants, each with its own
    // loaded device, reads through real StorageFrontends plus one
    // write and one update per tenant. Admission is unconstrained, so
    // every read must admit; timing is real and NOT asserted.
    const core::Bytes data = test::corpusBlocks(2);
    auto device_a = test::makeLoadedDevice({}, data);
    auto device_b = test::makeLoadedDevice({}, data);

    Trace trace;
    for (uint64_t i = 0; i < 3; ++i) {
        trace.push_back(
            TraceOp{i * 1'000, 1, i, OpType::Read, i});
        trace.push_back(
            TraceOp{i * 1'000 + 500, 2, i, OpType::Read, i});
    }
    trace.push_back(TraceOp{3'000, 1, 0, OpType::Write, 3});
    trace.push_back(TraceOp{3'500, 2, 1, OpType::Update, 3});

    std::map<core::TenantId, core::TenantParams> admission;
    admission[1].weight = 2;
    admission[2].weight = 1;
    std::map<core::TenantId, FleetDevice> fleet;
    fleet[1].device = device_a.get();
    fleet[2].device = device_b.get();

    SimulatorParams sp;
    sp.clock = SimulatorParams::Clock::Real;
    sp.service_threads = 2;
    SimResult result =
        replayOnFleet(trace, admission, {1, 2}, fleet, sp);

    EXPECT_EQ(result.ops_submitted, trace.size());
    ASSERT_EQ(result.report.tenants.size(), 2u);
    for (const TenantSlo &slo : result.report.tenants) {
        // Only reads pass through service admission; writes/updates
        // mutate the tenant's device directly.
        EXPECT_EQ(slo.offered, 3u) << "tenant " << slo.tenant;
        EXPECT_EQ(slo.admitted, 3u) << "tenant " << slo.tenant;
        EXPECT_EQ(slo.goodput(), 1.0) << "tenant " << slo.tenant;
        EXPECT_EQ(slo.latency_count, 3u) << "tenant " << slo.tenant;
    }
}

TEST_F(WorkloadSimTest, RejectPolicyShedsWhenQueueIsBounded)
{
    // 8 requests at t=0 into a depth-4 queue: 4 admit, 4 shed as
    // Overloaded — goodput 0.5 exactly, and the shed requests never
    // reach the dispatcher.
    Trace trace;
    for (uint64_t i = 0; i < 8; ++i)
        trace.push_back(TraceOp{0, 1, 0, OpType::Read, i});
    std::map<core::TenantId, core::TenantParams> admission;
    admission[1].weight = 1;

    SimulatorParams sp = virtualParams();
    sp.max_queue_depth = 4;
    SimResult result = replayTrace(trace, admission, {1}, sp);

    ASSERT_EQ(result.report.tenants.size(), 1u);
    const TenantSlo &slo = result.report.tenants[0];
    EXPECT_EQ(slo.admitted, 4u);
    EXPECT_EQ(slo.rejected, 4u);
    EXPECT_DOUBLE_EQ(slo.goodput(), 0.5);
    EXPECT_EQ(result.dispatches.size(), 4u);
}

} // namespace
} // namespace dnastore::workload
