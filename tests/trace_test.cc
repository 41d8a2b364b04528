/**
 * @file
 * Request-scoped tracing tests.
 *
 * Unit level: sampling verdicts (head counter, keep() tail flag, slow
 * threshold), ring eviction, and byte-exact golden pins of both
 * exporters on a hand-scripted trace under a manual clock.
 *
 * Service level: a traced DecodeService must produce one request root
 * per submission whose children cover admission → queue → decode →
 * every decode stage; requests shed by OverflowPolicy::Reject or a
 * tenant token bucket must record their time-in-admission in
 * decode_service.rejected_latency_us; histogram exemplars must
 * resolve to a retrievable trace for a scripted slow request; and
 * streaming sessions must hang chunk spans off one stream root.
 *
 * Simulator level: a virtual-clock replay with tracing on exports
 * byte-identical text across runs and across service thread counts
 * (the golden-pin contract), annotates the SLO report with each
 * tenant's slowest kept trace, and a sampling-off replay leaves no
 * collector at all.
 */

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/decode_service.h"
#include "common/thread_pool.h"
#include "core/decoder.h"
#include "sim/synthesis.h"
#include "support/fixtures.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workload/simulator.h"
#include "workload/trace.h"

namespace dnastore::telemetry {
namespace {

size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    size_t count = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++count;
    return count;
}

/** Names of all spans in a trace. */
std::multiset<std::string>
spanNames(const FinishedTrace &trace)
{
    std::multiset<std::string> names;
    for (const Span &span : trace.spans)
        names.insert(span.name);
    return names;
}

/** Parentage invariants: exactly one root, every parent id resolves,
 *  and every span is reachable from the root (i.e. the root is an
 *  ancestor of every stage span). */
testing::AssertionResult
wellFormedTree(const FinishedTrace &trace)
{
    std::map<SpanId, const Span *> by_id;
    size_t roots = 0;
    for (const Span &span : trace.spans) {
        if (span.id == kNoSpan)
            return testing::AssertionFailure()
                   << "trace " << trace.id << ": span id 0";
        if (!by_id.emplace(span.id, &span).second)
            return testing::AssertionFailure()
                   << "trace " << trace.id << ": duplicate span id "
                   << span.id;
        roots += span.parent == kNoSpan ? 1 : 0;
    }
    if (roots != 1)
        return testing::AssertionFailure()
               << "trace " << trace.id << ": " << roots << " roots";
    for (const Span &span : trace.spans) {
        if (span.end_us < span.start_us)
            return testing::AssertionFailure()
                   << "trace " << trace.id << " span " << span.name
                   << ": ends before it starts";
        // Walk to the root: every span must reach it without a cycle.
        size_t hops = 0;
        SpanId at = span.parent;
        while (at != kNoSpan) {
            auto it = by_id.find(at);
            if (it == by_id.end())
                return testing::AssertionFailure()
                       << "trace " << trace.id << " span " << span.name
                       << ": dangling parent " << at;
            at = it->second->parent;
            if (++hops > trace.spans.size())
                return testing::AssertionFailure()
                       << "trace " << trace.id << ": parent cycle";
        }
    }
    return testing::AssertionSuccess();
}

TEST(TraceCollectorTest, AllSamplingOffMintsInactiveHandles)
{
    TraceCollectorConfig config;
    config.sample_every = 0;
    config.keep_errors = false;
    config.slow_threshold_us = 0;
    TraceCollector collector(config);

    SpanHandle root = collector.startTrace("request", 1);
    EXPECT_FALSE(root.active());
    root.attrU64("tenant", 1);  // all no-ops
    TraceContext ctx = root.context();
    EXPECT_FALSE(ctx.active());
    EXPECT_EQ(ctx.traceId(), 0u);
    SpanHandle child = ctx.span("decode");
    EXPECT_FALSE(child.active());
    child.end();
    root.end();

    EXPECT_EQ(collector.traceCount(), 0u);
    EXPECT_TRUE(collector.exportText().empty());
}

TEST(TraceCollectorTest, HeadSamplingKeepsEveryNthPerTenant)
{
    TraceCollectorConfig config;
    config.sample_every = 2;
    config.keep_errors = false;
    config.clock_us = [] { return uint64_t{0}; };
    TraceCollector collector(config);

    for (int i = 0; i < 4; ++i)
        collector.startTrace("request", 1).end();
    // A second tenant has its own ordinal counter: its first trace is
    // kept even though the global ordinal would skip it.
    collector.startTrace("request", 2).end();

    std::vector<FinishedTrace> kept = collector.traces();
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_EQ(kept[0].id, 1u);
    EXPECT_EQ(kept[1].id, 3u);
    EXPECT_EQ(kept[2].id, 5u);
    EXPECT_EQ(kept[2].tenant, 2u);
}

TEST(TraceCollectorTest, KeepFlagAndSlowThresholdAreTailTriggers)
{
    uint64_t now = 0;
    TraceCollectorConfig config;
    config.sample_every = 0;  // head sampling off; tail triggers only
    config.keep_errors = true;
    config.slow_threshold_us = 100;
    config.clock_us = [&now] { return now; };
    TraceCollector collector(config);

    // Fast and unflagged: dropped at deposit.
    collector.startTrace("request", 1).end();
    EXPECT_EQ(collector.traceCount(), 0u);

    // keep() (error path) retains a fast trace.
    {
        SpanHandle root = collector.startTrace("request", 1);
        root.context().keep();
        root.end();
    }
    EXPECT_EQ(collector.traceCount(), 1u);

    // A root at/above the slow threshold retains itself.
    {
        SpanHandle root = collector.startTrace("request", 1);
        now += 100;
        root.end();
    }
    EXPECT_EQ(collector.traceCount(), 2u);
}

TEST(TraceCollectorTest, RingEvictsOldestAtCapacity)
{
    TraceCollectorConfig config;
    config.capacity = 2;
    config.clock_us = [] { return uint64_t{0}; };
    TraceCollector collector(config);

    for (int i = 0; i < 3; ++i)
        collector.startTrace("request", 1).end();

    EXPECT_EQ(collector.traceCount(), 2u);
    EXPECT_FALSE(collector.findTrace(1).has_value());
    EXPECT_TRUE(collector.findTrace(2).has_value());
    EXPECT_TRUE(collector.findTrace(3).has_value());

    collector.clear();
    EXPECT_EQ(collector.traceCount(), 0u);
}

/** One scripted trace under a manual clock; both exporters are pinned
 *  byte-exactly — these strings are the interchange contract. */
TEST(TraceCollectorTest, GoldenExports)
{
    uint64_t now = 0;
    TraceCollectorConfig config;
    config.clock_us = [&now] { return now; };
    TraceCollector collector(config);

    SpanHandle root = collector.startTrace("request", 7);
    root.attrU64("tenant", 7);
    TraceContext ctx = root.context();

    SpanHandle admission = ctx.spanAt("admission", 2);
    admission.attr("outcome", "admitted");
    admission.endAt(10);

    now = 40;
    SpanHandle decode = ctx.span("decode");
    decode.attrU64("reads", 120);
    TraceContext decode_ctx = decode.context();
    now = 55;
    decode_ctx.event("decode.early_termination");
    now = 60;
    decode.end();

    now = 75;
    root.attr("outcome", "ok");
    root.end();

    EXPECT_EQ(collector.exportText(),
              "trace 1 tenant=7 spans=4\n"
              "  request start=0 dur=75 tenant=7 outcome=ok\n"
              "    admission start=2 dur=8 outcome=admitted\n"
              "    decode start=40 dur=20 reads=120\n"
              "      decode.early_termination start=55 dur=0\n");

    EXPECT_EQ(
        collector.exportChromeJson(),
        "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
        "{\"name\": \"request\", \"ph\": \"X\", \"ts\": 0, "
        "\"dur\": 75, \"pid\": 7, \"tid\": 1, "
        "\"args\": {\"tenant\": \"7\", \"outcome\": \"ok\"}},\n"
        "{\"name\": \"admission\", \"ph\": \"X\", \"ts\": 2, "
        "\"dur\": 8, \"pid\": 7, \"tid\": 1, "
        "\"args\": {\"outcome\": \"admitted\"}},\n"
        "{\"name\": \"decode\", \"ph\": \"X\", \"ts\": 40, "
        "\"dur\": 20, \"pid\": 7, \"tid\": 1, "
        "\"args\": {\"reads\": \"120\"}},\n"
        "{\"name\": \"decode.early_termination\", \"ph\": \"X\", "
        "\"ts\": 55, \"dur\": 0, \"pid\": 7, \"tid\": 1}\n"
        "]}\n");
}

/** One partition with noisy reads, decoded through traced services. */
class ServiceTraceTest : public ::testing::Test
{
  protected:
    static constexpr size_t kBlocks = 4;
    static constexpr size_t kCoverage = 18;

    std::unique_ptr<core::Partition> partition_;
    std::unique_ptr<core::Decoder> decoder_;
    std::vector<sim::Read> reads_;

    void
    SetUp() override
    {
        const test::PrimerPair &primers = test::primerPair(0);
        partition_ = std::make_unique<core::Partition>(
            test::partitionConfig(0), primers.forward,
            primers.reverse, 13);
        core::Bytes data = test::corpusBlocks(kBlocks);
        sim::SynthesisParams synthesis;
        synthesis.seed = 1000;
        sim::Pool pool =
            sim::synthesize(partition_->encodeFile(data), synthesis);
        sim::SequencerParams sequencer;
        sequencer.sub_rate = 0.01;
        sequencer.ins_rate = 0.002;
        sequencer.del_rate = 0.002;
        sequencer.seed = 3;
        reads_ = sim::sequencePool(
            pool, kBlocks * partition_->config().rs_n * kCoverage,
            sequencer);
        core::DecoderParams params;
        decoder_ =
            std::make_unique<core::Decoder>(*partition_, params);
    }
};

TEST_F(ServiceTraceTest, RequestSpansCoverEveryDecodeStage)
{
    TraceCollector collector;
    core::DecodeServiceParams params;
    params.threads = 2;
    params.tracer = &collector;
    core::DecodeService service(params);

    core::DecodeOutcome outcome =
        service.submit(*decoder_, reads_).get();
    EXPECT_EQ(outcome.status, core::DecodeStatus::Ok);

    ASSERT_EQ(collector.traceCount(), 1u);
    const FinishedTrace trace = collector.traces().front();
    EXPECT_TRUE(wellFormedTree(trace));

    const std::multiset<std::string> names = spanNames(trace);
    EXPECT_EQ(names.count("request"), 1u);
    EXPECT_EQ(names.count("admission"), 1u);
    EXPECT_EQ(names.count("queue"), 1u);
    EXPECT_EQ(names.count("decode"), 1u);
    EXPECT_EQ(names.count("decode.primer_filter"), 1u);
    EXPECT_EQ(names.count("decode.cluster"), 1u);
    EXPECT_EQ(names.count("decode.consensus"), 1u);
    // One RS-decode span per attempted unit, and every recovered
    // unit was attempted.
    EXPECT_GE(names.count("decode.rs_unit"),
              outcome.stats.units_decoded);
    EXPECT_GT(names.count("decode.rs_unit"), 0u);

    // The root carries the outcome verdict.
    const Span *root = nullptr;
    for (const Span &span : trace.spans)
        if (span.parent == kNoSpan)
            root = &span;
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->name, "request");
    bool ok_outcome = false;
    for (const SpanAttr &attr : root->attrs)
        ok_outcome |= attr.key == "outcome" && attr.value == "ok";
    EXPECT_TRUE(ok_outcome);
}

// decode.consensus counts the read alignments that drifted beyond
// the refinement band. Each cluster counts its own and the counts are
// summed in cluster order, so the value is the same on any pool.
TEST_F(ServiceTraceTest, RefineFallbacksAreTheSameForAnyPoolSize)
{
    // A narrow band, so that drifted reads come from many clusters.
    core::DecoderParams params;
    params.bma.refine_band = 2;
    const core::Decoder decoder(*partition_, params);
    auto refineFallbacks = [&](size_t threads) {
        TraceCollector collector;
        SpanHandle root = collector.startTrace("request", 1);
        ThreadPool pool(threads);
        decoder.decodeAll(reads_, nullptr, pool, root.context());
        root.end();
        const std::vector<FinishedTrace> traces = collector.traces();
        std::vector<std::string> values;
        for (const FinishedTrace &trace : traces) {
            for (const Span &span : trace.spans) {
                if (span.name != "decode.consensus")
                    continue;
                for (const SpanAttr &attr : span.attrs) {
                    if (attr.key == "refine_fallbacks")
                        values.push_back(attr.value);
                }
            }
        }
        EXPECT_EQ(values.size(), 1u) << "pool of " << threads;
        return values.empty() ? std::string() : values.front();
    };
    const std::string one = refineFallbacks(1);
    EXPECT_NE(one, "0");
    EXPECT_EQ(refineFallbacks(8), one);
}

TEST_F(ServiceTraceTest, ShedRequestsRecordAdmissionLatency)
{
    uint64_t now = 0;
    telemetry::MetricsRegistry registry;
    TraceCollectorConfig trace_config;
    trace_config.clock_us = [&now] { return now; };
    TraceCollector collector(trace_config);

    core::DecodeServiceParams params;
    params.threads = 1;
    params.max_queue_depth = 1;
    params.overflow = core::OverflowPolicy::Reject;
    params.metrics = &registry;
    params.tracer = &collector;
    params.clock_us = [&now] { return now; };
    params.start_paused = true;
    params.tenants[5].burst = 1.0;  // rate 0: admits exactly one
    core::DecodeService service(params);

    // Tenant 5's first request takes the only queue slot and the only
    // bucket token; the second is shed by the bucket (Throttled), a
    // default-tenant request by queue depth (Overloaded/Rejected).
    std::future<core::DecodeOutcome> admitted =
        service.submit(*decoder_, {}, 5);
    std::future<core::DecodeOutcome> throttled =
        service.submit(*decoder_, {}, 5);
    std::future<core::DecodeOutcome> rejected =
        service.submit(*decoder_, {});
    EXPECT_EQ(throttled.get().status, core::DecodeStatus::Throttled);
    EXPECT_EQ(rejected.get().status, core::DecodeStatus::Overloaded);

    service.resumeDispatch();
    EXPECT_EQ(admitted.get().status, core::DecodeStatus::Ok);
    service.shutdown();

    // Both shed requests recorded their time-in-admission (zero under
    // the frozen manual clock — the contract is that they are counted
    // at all; before this histogram existed they vanished).
    telemetry::MetricsSnapshot snap = registry.snapshot();
    const telemetry::HistogramSnapshot &shed_latency =
        snap.histograms.at("decode_service.rejected_latency_us");
    EXPECT_EQ(shed_latency.count, 2u);
    EXPECT_EQ(shed_latency.sum, 0u);

    // Shed traces are tail-kept with the outcome and the same
    // latency as a root attribute.
    size_t shed_roots = 0;
    for (const FinishedTrace &trace : collector.traces()) {
        for (const Span &span : trace.spans) {
            if (span.parent != kNoSpan)
                continue;
            bool shed = false;
            bool latency_attr = false;
            for (const SpanAttr &attr : span.attrs) {
                shed |= attr.key == "outcome" &&
                        (attr.value == "throttled" ||
                         attr.value == "overloaded");
                latency_attr |= attr.key == "rejected_latency_us";
            }
            if (shed) {
                ++shed_roots;
                EXPECT_TRUE(latency_attr);
            }
        }
    }
    EXPECT_EQ(shed_roots, 2u);
}

TEST_F(ServiceTraceTest, ExemplarResolvesToRetrievableSlowTrace)
{
    uint64_t now = 0;
    telemetry::MetricsRegistry registry;
    TraceCollectorConfig trace_config;
    trace_config.clock_us = [&now] { return now; };
    TraceCollector collector(trace_config);

    core::DecodeServiceParams params;
    params.threads = 1;
    params.metrics = &registry;
    params.tracer = &collector;
    params.clock_us = [&now] { return now; };
    params.start_paused = true;
    core::DecodeService service(params);

    // Scripted slow request: enqueued at t=0, dispatched at t=7000.
    std::future<core::DecodeOutcome> future =
        service.submit(*decoder_, {});
    now = 7'000;
    service.resumeDispatch();
    EXPECT_EQ(future.get().status, core::DecodeStatus::Ok);
    service.shutdown();

    // The queue-latency histogram's exemplar points at the trace...
    telemetry::MetricsSnapshot snap = registry.snapshot();
    const telemetry::HistogramSnapshot &queue_latency =
        snap.histograms.at("decode_service.queue_latency_us");
    ASSERT_EQ(queue_latency.count, 1u);
    TraceId exemplar = 0;
    for (uint64_t id : queue_latency.exemplars)
        exemplar = std::max<TraceId>(exemplar, id);
    ASSERT_NE(exemplar, 0u);

    // ...and the trace is retrievable, with the 7 ms wait visible on
    // its queue span.
    std::optional<FinishedTrace> trace = collector.findTrace(exemplar);
    ASSERT_TRUE(trace.has_value());
    EXPECT_TRUE(wellFormedTree(*trace));
    bool queue_span = false;
    for (const Span &span : trace->spans)
        queue_span |= span.name == "queue" &&
                      span.end_us - span.start_us == 7'000;
    EXPECT_TRUE(queue_span);
}

TEST_F(ServiceTraceTest, StreamSessionsHangChunksOffOneRoot)
{
    TraceCollector collector;
    core::DecodeServiceParams params;
    params.threads = 2;
    params.tracer = &collector;
    core::DecodeService service(params);

    core::StreamParams stream_params;
    stream_params.decoder = decoder_.get();
    for (uint64_t block = 0; block < kBlocks; ++block)
        stream_params.expected_units.emplace_back(block, 0u);
    core::DecodeStream stream = service.openStream(stream_params);

    // Feed in eighths until the session completes early — the full
    // read set over-covers every unit, so it must.
    const size_t step = reads_.size() / 8;
    size_t chunks_fed = 0;
    for (size_t at = 0; at < reads_.size() && !stream.complete();
         at += step) {
        const size_t end = std::min(at + step, reads_.size());
        (void)stream.feed({reads_.begin() + at, reads_.begin() + end})
            .get();
        ++chunks_fed;
    }
    ASSERT_TRUE(stream.complete());
    EXPECT_EQ(stream.finish().get().status, core::DecodeStatus::Ok);
    service.shutdown();

    ASSERT_EQ(collector.traceCount(), 1u);
    const FinishedTrace trace = collector.traces().front();
    EXPECT_TRUE(wellFormedTree(trace));
    const std::multiset<std::string> names = spanNames(trace);
    EXPECT_EQ(names.count("stream"), 1u);
    EXPECT_EQ(names.count("stream.chunk"), chunks_fed);
    EXPECT_EQ(names.count("stream.finish"), 1u);
    EXPECT_GE(names.count("decode.primer_filter"), 1u);
    // The chunk that recovered the last unit fired the event.
    EXPECT_EQ(names.count("decode.early_termination"), 1u);
}

// A fed request is one request in the trace: one admission, queue and
// decode span. Under its decode, each chunk filters and clusters on its
// own, consensus runs once, and each pull gets its own wait span (one
// more than the chunks: the last one sees the feed close).
TEST_F(ServiceTraceTest, FedRequestSpansOneDecodeWithPerChunkStages)
{
    TraceCollector collector;
    core::DecodeServiceParams params;
    params.threads = 2;
    params.tracer = &collector;
    core::DecodeService service(params);

    core::ReadFeedWriter writer;
    std::future<core::DecodeOutcome> future =
        service.submit(*decoder_, writer);
    constexpr size_t kChunks = 3;
    const size_t step = reads_.size() / kChunks + 1;
    for (size_t at = 0; at < reads_.size(); at += step) {
        const size_t end = std::min(at + step, reads_.size());
        writer.push({reads_.begin() + static_cast<std::ptrdiff_t>(at),
                     reads_.begin() + static_cast<std::ptrdiff_t>(end)});
    }
    writer.close();
    EXPECT_EQ(future.get().status, core::DecodeStatus::Ok);
    service.shutdown();

    ASSERT_EQ(collector.traceCount(), 1u);
    const FinishedTrace trace = collector.traces().front();
    EXPECT_TRUE(wellFormedTree(trace));
    const std::multiset<std::string> names = spanNames(trace);
    EXPECT_EQ(names.count("request"), 1u);
    EXPECT_EQ(names.count("admission"), 1u);
    EXPECT_EQ(names.count("queue"), 1u);
    EXPECT_EQ(names.count("decode"), 1u);
    EXPECT_EQ(names.count("decode.primer_filter"), kChunks);
    EXPECT_EQ(names.count("decode.cluster"), kChunks);
    EXPECT_EQ(names.count("decode.feed_wait"), kChunks + 1);
    EXPECT_EQ(names.count("decode.consensus"), 1u);
    EXPECT_GT(names.count("decode.rs_unit"), 0u);

    // The stage and wait spans hang directly off the one decode span,
    // so its self time excludes the waits.
    SpanId decode = kNoSpan;
    for (const Span &span : trace.spans)
        if (span.name == "decode")
            decode = span.id;
    for (const Span &span : trace.spans) {
        if (span.name.rfind("decode.", 0) == 0) {
            EXPECT_EQ(span.parent, decode) << span.name;
        }
    }
}

// ---------------------------------------------------------------------
// Simulator-level: byte-reproducible virtual-clock traces.

workload::SimulatorParams
tracedVirtualParams(const core::Decoder &decoder)
{
    workload::SimulatorParams sp;
    sp.clock = workload::SimulatorParams::Clock::Virtual;
    sp.decoder = &decoder;
    sp.virtual_service_time_us = 500;
    sp.trace_sample_every = 1;
    sp.trace_capacity = 1024;
    return sp;
}

/** Two tenants, five scripted arrivals. */
workload::Trace
scriptedTrace()
{
    workload::Trace trace;
    trace.push_back({0, 1, 0, workload::OpType::Read, 0});
    trace.push_back({0, 2, 0, workload::OpType::Read, 1});
    trace.push_back({200, 1, 1, workload::OpType::Read, 2});
    trace.push_back({1'500, 2, 0, workload::OpType::Read, 3});
    trace.push_back({2'400, 1, 2, workload::OpType::Read, 4});
    return trace;
}

class SimulatorTraceTest : public ::testing::Test
{
  protected:
    std::unique_ptr<core::Partition> partition_;
    std::unique_ptr<core::Decoder> decoder_;

    void
    SetUp() override
    {
        const test::PrimerPair &primers = test::primerPair(0);
        partition_ = std::make_unique<core::Partition>(
            test::partitionConfig(0), primers.forward,
            primers.reverse, 13);
        core::DecoderParams params;
        decoder_ =
            std::make_unique<core::Decoder>(*partition_, params);
    }

    workload::SimResult
    replay(size_t service_threads)
    {
        workload::SimulatorParams sp =
            tracedVirtualParams(*decoder_);
        sp.service_threads = service_threads;
        std::map<core::TenantId, core::TenantParams> admission;
        admission[1].weight = 2;
        admission[2].weight = 1;
        return workload::replayTrace(scriptedTrace(), admission,
                                     {1, 2}, sp);
    }
};

TEST_F(SimulatorTraceTest, VirtualReplayExportsByteIdenticalText)
{
    workload::SimResult a = replay(1);
    workload::SimResult b = replay(1);
    workload::SimResult wide = replay(4);
    ASSERT_NE(a.traces, nullptr);
    ASSERT_NE(b.traces, nullptr);
    ASSERT_NE(wide.traces, nullptr);

    const std::string text = a.traces->exportText();
    EXPECT_FALSE(text.empty());
    EXPECT_EQ(text, b.traces->exportText());
    // Thread count must not move a single byte: the virtual clock and
    // the sorted exporters make the trace a pure function of the
    // scripted schedule.
    EXPECT_EQ(text, wide.traces->exportText());

    // Literal golden pin: the export is all-integer (no libm), so it
    // is portable enough to pin byte-for-byte. On mismatch the diff
    // IS the behavior change — admission order, WDRR credit turns, or
    // the virtual service-time schedule moved. Note tenant 1 (weight
    // 2) winning dispatch turns over tenant 2's earlier arrivals.
    EXPECT_EQ(
        text,
        "trace 1 tenant=1 spans=5\n"
        "  request start=0 dur=2900 tenant=1 outcome=ok\n"
        "    admission start=0 dur=0 outcome=admitted"
        " queue_depth_entry=0 ticket_wait_us=0\n"
        "    queue start=0 dur=2900 wdrr_deficit=1\n"
        "    decode start=2900 dur=0 reads=0\n"
        "      decode.primer_filter start=2900 dur=0 reads_in=0"
        " matched=0\n"
        "trace 2 tenant=2 spans=5\n"
        "  request start=0 dur=3900 tenant=2 outcome=ok\n"
        "    admission start=0 dur=0 outcome=admitted"
        " queue_depth_entry=1 ticket_wait_us=0\n"
        "    queue start=0 dur=3900 wdrr_deficit=0\n"
        "    decode start=3900 dur=0 reads=0\n"
        "      decode.primer_filter start=3900 dur=0 reads_in=0"
        " matched=0\n"
        "trace 3 tenant=1 spans=5\n"
        "  request start=200 dur=3200 tenant=1 outcome=ok\n"
        "    admission start=200 dur=0 outcome=admitted"
        " queue_depth_entry=2 ticket_wait_us=0\n"
        "    queue start=200 dur=3200 wdrr_deficit=0\n"
        "    decode start=3400 dur=0 reads=0\n"
        "      decode.primer_filter start=3400 dur=0 reads_in=0"
        " matched=0\n"
        "trace 4 tenant=2 spans=5\n"
        "  request start=1500 dur=3400 tenant=2 outcome=ok\n"
        "    admission start=1500 dur=0 outcome=admitted"
        " queue_depth_entry=3 ticket_wait_us=0\n"
        "    queue start=1500 dur=3400 wdrr_deficit=0\n"
        "    decode start=4900 dur=0 reads=0\n"
        "      decode.primer_filter start=4900 dur=0 reads_in=0"
        " matched=0\n"
        "trace 5 tenant=1 spans=5\n"
        "  request start=2400 dur=2000 tenant=1 outcome=ok\n"
        "    admission start=2400 dur=0 outcome=admitted"
        " queue_depth_entry=4 ticket_wait_us=0\n"
        "    queue start=2400 dur=2000 wdrr_deficit=1\n"
        "    decode start=4400 dur=0 reads=0\n"
        "      decode.primer_filter start=4400 dur=0 reads_in=0"
        " matched=0\n");

    // Every request produced a kept trace covering admission →
    // dispatch → decode.
    EXPECT_EQ(a.traces->traceCount(), scriptedTrace().size());
    for (const FinishedTrace &trace : a.traces->traces()) {
        EXPECT_TRUE(wellFormedTree(trace));
        const std::multiset<std::string> names = spanNames(trace);
        EXPECT_EQ(names.count("request"), 1u);
        EXPECT_EQ(names.count("admission"), 1u);
        EXPECT_EQ(names.count("queue"), 1u);
        EXPECT_EQ(names.count("decode"), 1u);
    }
}

TEST_F(SimulatorTraceTest, ReportCarriesSlowestTracePerTenant)
{
    workload::SimResult result = replay(1);
    ASSERT_NE(result.traces, nullptr);
    for (const workload::TenantSlo &slo : result.report.tenants) {
        ASSERT_NE(slo.slowest_trace_id, 0u)
            << "tenant " << slo.tenant;
        std::optional<FinishedTrace> trace =
            result.traces->findTrace(slo.slowest_trace_id);
        ASSERT_TRUE(trace.has_value()) << "tenant " << slo.tenant;
        EXPECT_EQ(trace->tenant, slo.tenant);
        // The annotation is the root span's duration.
        for (const Span &span : trace->spans) {
            if (span.parent == kNoSpan) {
                EXPECT_EQ(span.end_us - span.start_us,
                          slo.slowest_trace_us);
            }
        }
        // No kept trace of the tenant is slower.
        for (const FinishedTrace &other : result.traces->traces()) {
            if (other.tenant != slo.tenant)
                continue;
            for (const Span &span : other.spans) {
                if (span.parent == kNoSpan) {
                    EXPECT_LE(span.end_us - span.start_us,
                              slo.slowest_trace_us);
                }
            }
        }
    }
}

TEST_F(SimulatorTraceTest, SamplingOffLeavesNoCollector)
{
    workload::SimulatorParams sp = tracedVirtualParams(*decoder_);
    sp.trace_sample_every = 0;
    std::map<core::TenantId, core::TenantParams> admission;
    admission[1];
    admission[2];
    workload::SimResult result = workload::replayTrace(
        scriptedTrace(), admission, {1, 2}, sp);
    EXPECT_EQ(result.traces, nullptr);
    for (const workload::TenantSlo &slo : result.report.tenants) {
        EXPECT_EQ(slo.slowest_trace_id, 0u);
        EXPECT_EQ(slo.slowest_trace_us, 0u);
    }
}

TEST_F(SimulatorTraceTest, TracingDoesNotMoveTheReportFingerprint)
{
    workload::SimulatorParams traced = tracedVirtualParams(*decoder_);
    workload::SimulatorParams untraced = traced;
    untraced.trace_sample_every = 0;
    std::map<core::TenantId, core::TenantParams> admission;
    admission[1];
    admission[2];
    workload::SimResult with = workload::replayTrace(
        scriptedTrace(), admission, {1, 2}, traced);
    workload::SimResult without = workload::replayTrace(
        scriptedTrace(), admission, {1, 2}, untraced);
    EXPECT_EQ(with.report_fingerprint, without.report_fingerprint);
    EXPECT_EQ(with.end_clock_us, without.end_clock_us);
}

TEST_F(SimulatorTraceTest, ChromeJsonExportIsWellFormed)
{
    workload::SimResult result = replay(2);
    ASSERT_NE(result.traces, nullptr);
    const std::string json = result.traces->exportChromeJson();

    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\": \"ms\", "
                         "\"traceEvents\": [\n",
                         0),
              0u);
    EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");

    // Every event is a complete "X" event with pid/tid/ts/dur.
    size_t total_spans = 0;
    for (const FinishedTrace &trace : result.traces->traces())
        total_spans += trace.spans.size();
    EXPECT_GT(total_spans, 0u);
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"X\""), total_spans);
    EXPECT_EQ(countOccurrences(json, "\"pid\": "), total_spans);
    EXPECT_EQ(countOccurrences(json, "\"tid\": "), total_spans);
    EXPECT_EQ(countOccurrences(json, "\"ts\": "), total_spans);
    EXPECT_EQ(countOccurrences(json, "\"dur\": "), total_spans);
    // No dangling comma before the closing bracket.
    EXPECT_EQ(json.find(",\n]"), std::string::npos);
}

} // namespace
} // namespace dnastore::telemetry
