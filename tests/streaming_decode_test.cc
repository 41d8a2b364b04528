/**
 * @file
 * Streaming incremental decode contract tests.
 *
 * Pinned contracts:
 *  - deferred mode (no expected units): feed() + finish() over
 *    chunked reads is byte-identical — units AND DecodeStats — to a
 *    one-shot Decoder::decodeAll of the concatenated read set, for
 *    session pools of 1, 2, and 8 threads;
 *  - eager mode: with every (block, 0) expected, the coverage-22
 *    session terminates before consuming the full read budget,
 *    further chunks are skipped (counted, never processed), every
 *    emitted payload is byte-identical to the one-shot decode of
 *    the same unit, and the emission order is identical for every
 *    thread count;
 *  - fault injection: a block whose molecules never reach the pool
 *    resolves its unit future as Incomplete and the stream's finish
 *    outcome as Partial, while sibling units still decode;
 *  - DecodeService streams: chunks flow through admission control,
 *    per-unit futures resolve the moment a unit decodes, and the
 *    stream telemetry (reads consumed/skipped, early units,
 *    reads-at-completion histogram) adds up exactly;
 *  - stream shedding: a chunk over its tenant's token bucket resolves
 *    Throttled and one over a Reject-policy queue bound Overloaded,
 *    neither reaches the session, and the admission-exempt finish
 *    marker still resolves every unit future.
 */

#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/decode_service.h"
#include "sim/pcr.h"
#include "sim/synthesis.h"
#include "support/fixtures.h"

namespace dnastore::core {
namespace {

constexpr size_t kBlocks = 5;
constexpr size_t kCoverage = 22;
constexpr size_t kChunkReads = 100;

/** One partition's full channel leg plus its one-shot golden. */
struct Leg
{
    std::unique_ptr<Partition> partition;
    std::unique_ptr<Decoder> decoder;
    std::vector<sim::Read> reads;
    std::map<uint64_t, BlockVersions> golden_units;
    DecodeStats golden_stats;
};

/**
 * Encode → synthesize → PCR → sequence one 5-block partition at
 * coverage 22, optionally dropping every molecule of @p drop_block
 * before synthesis (an unrecoverable unit for the fault tests), and
 * compute the sequential one-shot golden.
 */
Leg
buildLeg(std::optional<uint64_t> drop_block = std::nullopt)
{
    Leg leg;
    const test::PrimerPair &primers = test::primerPair(0);
    leg.partition = std::make_unique<Partition>(
        test::partitionConfig(0), primers.forward, primers.reverse, 13);
    Bytes data = test::corpusBlocks(kBlocks, test::kTestSeed);

    std::vector<sim::DesignedMolecule> molecules =
        leg.partition->encodeFile(data);
    if (drop_block) {
        molecules.erase(
            std::remove_if(molecules.begin(), molecules.end(),
                           [&](const sim::DesignedMolecule &m) {
                               return m.info.block == *drop_block;
                           }),
            molecules.end());
    }
    sim::SynthesisParams synthesis;
    synthesis.seed = 1000;
    sim::Pool pool = sim::synthesize(molecules, synthesis);

    sim::PcrParams pcr;
    pcr.cycles = 15;
    sim::Pool product =
        sim::runPcr(pool, {sim::PcrPrimer{primers.forward, 1.0}},
                    primers.reverse, pcr);

    sim::SequencerParams sequencer;
    sequencer.sub_rate = 0.01;
    sequencer.ins_rate = 0.002;
    sequencer.del_rate = 0.002;
    sequencer.seed = 97;
    leg.reads = sim::sequencePool(
        product, kBlocks * leg.partition->config().rs_n * kCoverage,
        sequencer);

    leg.decoder =
        std::make_unique<Decoder>(*leg.partition, DecoderParams{});
    ThreadPool sequential(1);
    leg.golden_units = leg.decoder->decodeAll(
        leg.reads, &leg.golden_stats, sequential);
    return leg;
}

/** The leg's reads split into fixed-size chunks (last one ragged). */
std::vector<std::vector<sim::Read>>
chunked(const std::vector<sim::Read> &reads)
{
    std::vector<std::vector<sim::Read>> chunks;
    for (size_t i = 0; i < reads.size(); i += kChunkReads) {
        size_t end = std::min(reads.size(), i + kChunkReads);
        chunks.emplace_back(reads.begin() + i, reads.begin() + end);
    }
    return chunks;
}

std::vector<UnitKey>
allBlocksVersionZero()
{
    std::vector<UnitKey> units;
    for (uint64_t block = 0; block < kBlocks; ++block)
        units.push_back({block, 0u});
    return units;
}

TEST(StreamingDecodeTest, DeferredModeMatchesOneShotExactly)
{
    Leg leg = buildLeg();
    ASSERT_EQ(leg.golden_stats.units_decoded, kBlocks);

    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        StreamingDecoder session(*leg.partition, DecoderParams{});
        for (const auto &chunk : chunked(leg.reads))
            EXPECT_EQ(session.feed(chunk, pool), chunk.size());
        EXPECT_FALSE(session.complete());  // deferred: never early

        DecodeStats stats;
        auto units = session.finish(&stats, pool);
        EXPECT_EQ(units, leg.golden_units) << "threads=" << threads;
        EXPECT_EQ(stats, leg.golden_stats) << "threads=" << threads;
        EXPECT_TRUE(session.finished());
    }
}

TEST(StreamingDecodeTest, EagerModeTerminatesEarlyDeterministically)
{
    Leg leg = buildLeg();
    const auto chunks = chunked(leg.reads);

    std::optional<size_t> consumed_at_one_thread;
    std::optional<std::vector<StreamedUnit>> emitted_at_one_thread;
    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        StreamingParams streaming;
        streaming.expected_units = allBlocksVersionZero();
        std::vector<UnitKey> callback_order;
        streaming.on_unit = [&](uint64_t block, unsigned version,
                                const Bytes &payload) {
            callback_order.push_back({block, version});
            // Every payload — early or not — must match the one-shot
            // decode of the same unit byte for byte.
            EXPECT_EQ(payload,
                      leg.golden_units.at(block).versions.at(version));
        };
        StreamingDecoder session(*leg.partition, DecoderParams{},
                                 streaming);
        for (const auto &chunk : chunks) {
            size_t consumed = session.feed(chunk, pool);
            if (session.complete()) {
                EXPECT_TRUE(consumed == chunk.size() || consumed == 0);
                break;
            }
            EXPECT_EQ(consumed, chunk.size());
        }
        ASSERT_TRUE(session.complete())
            << "coverage 22 must recover all blocks before the "
               "budget runs out";

        // A chunk fed after completion is skipped, not processed.
        EXPECT_EQ(session.feed(chunks.front(), pool), 0u);

        DecodeStats stats;
        auto units = session.finish(&stats, pool);
        EXPECT_EQ(stats.units_emitted_early, kBlocks);
        EXPECT_LT(stats.reads_consumed, leg.reads.size())
            << "early termination must leave reads unconsumed";
        EXPECT_EQ(stats.reads_in,
                  stats.reads_consumed + stats.reads_skipped);
        for (uint64_t block = 0; block < kBlocks; ++block) {
            EXPECT_EQ(units.at(block).versions.at(0),
                      leg.golden_units.at(block).versions.at(0));
        }
        EXPECT_EQ(callback_order.size(), kBlocks);

        // Determinism across thread counts: the reads consumed at
        // completion and the exact emission sequence are invariant.
        if (!consumed_at_one_thread) {
            consumed_at_one_thread = stats.reads_consumed;
            emitted_at_one_thread = session.emitted();
        } else {
            EXPECT_EQ(stats.reads_consumed, *consumed_at_one_thread)
                << "threads=" << threads;
            EXPECT_EQ(session.emitted(), *emitted_at_one_thread)
                << "threads=" << threads;
        }
    }
}

TEST(StreamingDecodeTest, FeedAndFinishAfterFinishThrow)
{
    Leg leg = buildLeg();
    DecoderParams params;
    StreamingDecoder session(*leg.partition, params);
    session.feed(leg.reads);
    session.finish();
    EXPECT_THROW(session.feed(leg.reads), FatalError);
    EXPECT_THROW(session.finish(), FatalError);
}

TEST(StreamingDecodeTest, ServiceStreamDeliversUnitsAndTelemetry)
{
    Leg leg = buildLeg();
    const auto chunks = chunked(leg.reads);

    telemetry::MetricsRegistry registry;
    DecodeServiceParams service_params;
    service_params.threads = 4;
    service_params.metrics = &registry;
    DecodeService service(service_params);

    StreamParams params;
    params.decoder = leg.decoder.get();
    params.expected_units = allBlocksVersionZero();
    DecodeStream stream = service.openStream(params);

    std::vector<std::future<StreamUnitResult>> unit_futures;
    for (uint64_t block = 0; block < kBlocks; ++block)
        unit_futures.push_back(stream.unitFuture(block, 0));
    // Each expected unit's future can be claimed exactly once, and
    // only expected units have one.
    EXPECT_THROW(stream.unitFuture(0, 0), FatalError);
    EXPECT_THROW(stream.unitFuture(99, 0), FatalError);

    // Feed until the session reports completion, then once more to
    // pin the Skipped contract.
    size_t chunks_fed = 0;
    for (const auto &chunk : chunks) {
        DecodeOutcome outcome = stream.feed(chunk).get();
        ++chunks_fed;
        ASSERT_TRUE(outcome.status == DecodeStatus::Ok ||
                    outcome.status == DecodeStatus::Skipped);
        if (stream.complete())
            break;
    }
    ASSERT_TRUE(stream.complete());
    ASSERT_LT(chunks_fed, chunks.size());
    EXPECT_EQ(stream.feed(chunks.back()).get().status,
              DecodeStatus::Skipped);

    for (uint64_t block = 0; block < kBlocks; ++block) {
        StreamUnitResult unit = unit_futures[block].get();
        EXPECT_EQ(unit.status, UnitStatus::Decoded);
        EXPECT_EQ(unit.block, block);
        EXPECT_EQ(unit.payload,
                  leg.golden_units.at(block).versions.at(0));
    }

    DecodeOutcome final = stream.finish().get();
    EXPECT_EQ(final.status, DecodeStatus::Ok);
    for (uint64_t block = 0; block < kBlocks; ++block) {
        EXPECT_EQ(final.units.at(block).versions.at(0),
                  leg.golden_units.at(block).versions.at(0));
    }
    EXPECT_THROW(stream.feed({}), FatalError);
    EXPECT_THROW(stream.finish(), FatalError);

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("decode_service.streams_opened"), 1u);
    // chunks_fed + one skipped chunk + the finish marker.
    EXPECT_EQ(snap.counters.at("decode_service.stream_chunks"),
              chunks_fed + 2);
    EXPECT_EQ(
        snap.counters.at("decode_service.stream_units_early"), kBlocks);
    EXPECT_EQ(
        snap.counters.at("decode_service.streams_completed_early"), 1u);
    EXPECT_EQ(final.stats.reads_consumed,
              snap.counters.at("decode_service.stream_reads_consumed"));
    EXPECT_EQ(final.stats.reads_skipped,
              snap.counters.at("decode_service.stream_reads_skipped"));
    EXPECT_EQ(final.stats.reads_in,
              final.stats.reads_consumed + final.stats.reads_skipped);
    const telemetry::HistogramSnapshot &at_completion =
        snap.histograms.at("decode_service.stream_reads_at_completion");
    EXPECT_EQ(at_completion.count, 1u);
    EXPECT_EQ(at_completion.sum, final.stats.reads_consumed);
}

TEST(StreamingDecodeTest, UnrecoverableUnitResolvesIncompleteAndPartial)
{
    constexpr uint64_t kDroppedBlock = 3;
    Leg leg = buildLeg(kDroppedBlock);
    // The golden confirms the channel itself cannot recover the
    // dropped block: its molecules never reached the pool.
    ASSERT_EQ(leg.golden_units.count(kDroppedBlock), 0u);

    DecodeServiceParams service_params;
    service_params.threads = 2;
    DecodeService service(service_params);

    StreamParams params;
    params.decoder = leg.decoder.get();
    params.expected_units = allBlocksVersionZero();
    DecodeStream stream = service.openStream(params);

    std::future<StreamUnitResult> dropped =
        stream.unitFuture(kDroppedBlock, 0);
    for (const auto &chunk : chunked(leg.reads))
        ASSERT_EQ(stream.feed(chunk).get().status, DecodeStatus::Ok);
    EXPECT_FALSE(stream.complete());

    DecodeOutcome final = stream.finish().get();
    EXPECT_EQ(final.status, DecodeStatus::Partial);
    EXPECT_EQ(final.units.count(kDroppedBlock), 0u);

    StreamUnitResult missing = dropped.get();
    EXPECT_EQ(missing.status, UnitStatus::Incomplete);
    EXPECT_EQ(missing.block, kDroppedBlock);
    EXPECT_TRUE(missing.payload.empty());

    // Sibling units still decode, byte-identical to the golden.
    for (uint64_t block = 0; block < kBlocks; ++block) {
        if (block == kDroppedBlock)
            continue;
        StreamUnitResult unit = stream.unitFuture(block, 0).get();
        EXPECT_EQ(unit.status, UnitStatus::Decoded);
        EXPECT_EQ(unit.payload,
                  leg.golden_units.at(block).versions.at(0));
    }
}

TEST(StreamingDecodeTest, ServiceDeferredStreamMatchesOneShot)
{
    Leg leg = buildLeg();
    telemetry::MetricsRegistry registry;
    DecodeServiceParams service_params;
    service_params.threads = 4;
    service_params.metrics = &registry;
    DecodeService service(service_params);

    StreamParams params;
    params.decoder = leg.decoder.get();
    DecodeStream stream = service.openStream(params);
    for (const auto &chunk : chunked(leg.reads))
        EXPECT_EQ(stream.feed(chunk).get().status, DecodeStatus::Ok);

    DecodeOutcome final = stream.finish().get();
    EXPECT_EQ(final.status, DecodeStatus::Ok);
    EXPECT_EQ(final.units, leg.golden_units);
    EXPECT_EQ(final.stats, leg.golden_stats);
    // Deferred mode never completes early.
    EXPECT_EQ(registry.snapshot().counters.at(
                  "decode_service.streams_completed_early"),
              0u);
}

TEST(StreamingDecodeTest, TokenBucketThrottlesChunkButFinishResolves)
{
    Leg leg = buildLeg();
    const auto chunks = chunked(leg.reads);
    constexpr TenantId kTenant = 7;

    telemetry::MetricsRegistry registry;
    DecodeServiceParams service_params;
    service_params.threads = 2;
    service_params.metrics = &registry;
    service_params.tenants[kTenant].burst = 1.0;  // rate 0: one chunk
    DecodeService service(service_params);

    StreamParams params;
    params.decoder = leg.decoder.get();
    params.tenant = kTenant;
    params.expected_units = allBlocksVersionZero();
    DecodeStream stream = service.openStream(params);

    EXPECT_EQ(stream.feed(chunks[0]).get().status, DecodeStatus::Ok);
    DecodeOutcome throttled = stream.feed(chunks[1]).get();
    EXPECT_EQ(throttled.status, DecodeStatus::Throttled);
    EXPECT_EQ(throttled.stats, DecodeStats{});
    EXPECT_TRUE(throttled.units.empty());

    // The finish marker is exempt from admission, so the session still
    // finalizes; one chunk cannot recover every unit.
    DecodeOutcome final = stream.finish().get();
    EXPECT_EQ(final.status, DecodeStatus::Partial);
    EXPECT_EQ(final.stats.reads_in, chunks[0].size());
    ASSERT_EQ(final.units.count(0), 0u);
    EXPECT_EQ(stream.unitFuture(0, 0).get().status,
              UnitStatus::Incomplete);

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("decode_service.requests_throttled"), 1u);
    EXPECT_EQ(snap.counters.at(
                  "decode_service.tenant.7.requests_throttled"),
              1u);
    EXPECT_EQ(
        snap.histograms.at("decode_service.rejected_latency_us").count,
        1u);
    // Admitted chunks only: the first chunk and the finish marker.
    EXPECT_EQ(snap.counters.at("decode_service.stream_chunks"), 2u);
}

TEST(StreamingDecodeTest, RejectPolicyShedsChunkOverQueueDepth)
{
    Leg leg = buildLeg();
    const auto chunks = chunked(leg.reads);

    DecodeServiceParams service_params;
    service_params.threads = 2;
    service_params.max_queue_depth = 1;
    service_params.overflow = OverflowPolicy::Reject;
    service_params.start_paused = true;
    DecodeService service(service_params);

    StreamParams params;
    params.decoder = leg.decoder.get();
    DecodeStream stream = service.openStream(params);

    // Dispatch is paused, so the first chunk holds the only slot.
    std::future<DecodeOutcome> first = stream.feed(chunks[0]);
    EXPECT_EQ(stream.feed(chunks[1]).get().status,
              DecodeStatus::Overloaded);
    service.resumeDispatch();
    EXPECT_EQ(first.get().status, DecodeStatus::Ok);

    // The shed chunk never reached the session.
    EXPECT_EQ(stream.finish().get().stats.reads_in, chunks[0].size());
}

} // namespace
} // namespace dnastore::core
