/**
 * @file
 * DecodeService contract tests.
 *
 * Determinism: a batch outcome must be byte-identical to sequential
 * Decoder::decodeAll for every service thread count and for any
 * submission order or interleaving — the service only adds
 * scheduling, never changes a result.
 *
 * Lifecycle: submissions after shutdown are rejected, an exception in
 * one partition's job surfaces only through that job's future, and
 * the destructor drains (decodes, not drops) everything queued.
 */

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/decode_service.h"
#include "sim/synthesis.h"
#include "support/fixtures.h"

namespace dnastore::core {
namespace {

/** Three partitions with distinct primer pairs and seeds, each
 *  holding its own 5-block corpus, plus seeded noisy reads and the
 *  sequential golden outcome per partition. */
class DecodeServiceTest : public ::testing::Test
{
  protected:
    static constexpr size_t kPartitions = 3;
    static constexpr size_t kBlocks = 5;
    static constexpr size_t kCoverage = 18;

    std::vector<std::unique_ptr<Partition>> partitions_;
    std::vector<std::unique_ptr<Decoder>> decoders_;
    std::vector<std::vector<sim::Read>> reads_;
    std::vector<DecodeOutcome> golden_;

    void
    SetUp() override
    {
        for (size_t p = 0; p < kPartitions; ++p) {
            const test::PrimerPair &primers = test::primerPair(p);
            partitions_.push_back(std::make_unique<Partition>(
                test::partitionConfig(p), primers.forward,
                primers.reverse, static_cast<uint32_t>(13 + p)));

            Bytes data = test::corpusBlocks(kBlocks, test::kTestSeed + p);
            sim::SynthesisParams synthesis;
            synthesis.seed = 1000 + p;
            sim::Pool pool = sim::synthesize(
                partitions_[p]->encodeFile(data), synthesis);

            sim::SequencerParams sequencer;
            sequencer.sub_rate = 0.01;
            sequencer.ins_rate = 0.002;
            sequencer.del_rate = 0.002;
            sequencer.seed = 3 + 131 * p;
            reads_.push_back(sim::sequencePool(
                pool, kBlocks * partitions_[p]->config().rs_n * kCoverage,
                sequencer));

            decoders_.push_back(std::make_unique<Decoder>(
                *partitions_[p], DecoderParams{}));

            ThreadPool sequential(1);
            DecodeOutcome outcome;
            outcome.units = decoders_[p]->decodeAll(
                reads_[p], &outcome.stats, sequential);
            EXPECT_EQ(outcome.stats.units_decoded, kBlocks);
            golden_.push_back(std::move(outcome));
        }
    }

    std::vector<DecodeRequest>
    fullBatch() const
    {
        std::vector<DecodeRequest> batch(kPartitions);
        for (size_t p = 0; p < kPartitions; ++p) {
            batch[p].decoder = decoders_[p].get();
            batch[p].reads = reads_[p];
        }
        return batch;
    }
};

TEST_F(DecodeServiceTest, BatchMatchesSequentialDecodeAcrossThreadCounts)
{
    for (size_t threads : {1u, 2u, 8u}) {
        DecodeServiceParams params;
        params.threads = threads;
        DecodeService service(params);
        EXPECT_EQ(service.threadCount(), threads);

        std::vector<std::future<DecodeOutcome>> futures =
            service.submitBatch(fullBatch());
        ASSERT_EQ(futures.size(), kPartitions);
        for (size_t p = 0; p < kPartitions; ++p) {
            DecodeOutcome outcome = futures[p].get();
            EXPECT_EQ(outcome.units, golden_[p].units)
                << "threads=" << threads << " partition=" << p;
            EXPECT_EQ(outcome.stats, golden_[p].stats)
                << "threads=" << threads << " partition=" << p;
        }
    }
}

TEST_F(DecodeServiceTest, SubmissionOrderDoesNotChangeResults)
{
    DecodeServiceParams params;
    params.threads = 4;
    DecodeService service(params);

    // Out-of-order single submissions, then an interleaved second
    // round before the first round's futures are consumed.
    std::vector<std::future<DecodeOutcome>> first(kPartitions);
    for (size_t p = kPartitions; p-- > 0;)
        first[p] = service.submit(*decoders_[p], reads_[p]);
    std::vector<std::future<DecodeOutcome>> second =
        service.submitBatch(fullBatch());

    for (size_t p = 0; p < kPartitions; ++p) {
        EXPECT_EQ(first[p].get(), golden_[p]) << "partition " << p;
        EXPECT_EQ(second[p].get(), golden_[p]) << "partition " << p;
    }
}

TEST_F(DecodeServiceTest, ConcurrentSubmittersGetTheirOwnResults)
{
    DecodeServiceParams params;
    params.threads = 4;
    DecodeService service(params);

    constexpr size_t kRounds = 3;
    std::vector<std::vector<std::future<DecodeOutcome>>> futures(
        kPartitions);
    std::vector<std::thread> submitters;
    for (size_t p = 0; p < kPartitions; ++p) {
        futures[p].resize(kRounds);
        submitters.emplace_back([&, p] {
            for (size_t round = 0; round < kRounds; ++round) {
                futures[p][round] =
                    service.submit(*decoders_[p], reads_[p]);
            }
        });
    }
    for (std::thread &submitter : submitters)
        submitter.join();

    for (size_t p = 0; p < kPartitions; ++p)
        for (size_t round = 0; round < kRounds; ++round)
            EXPECT_EQ(futures[p][round].get(), golden_[p])
                << "partition " << p << " round " << round;
}

TEST_F(DecodeServiceTest, SubmitAfterShutdownIsRejected)
{
    DecodeServiceParams params;
    params.threads = 2;
    DecodeService service(params);
    std::future<DecodeOutcome> accepted =
        service.submit(*decoders_[0], reads_[0]);
    service.shutdown();

    EXPECT_THROW(service.submit(*decoders_[1], reads_[1]), FatalError);
    EXPECT_THROW(service.submitBatch(fullBatch()), FatalError);
    // Work accepted before shutdown still delivered.
    EXPECT_EQ(accepted.get(), golden_[0]);
    // shutdown is idempotent.
    service.shutdown();
}

TEST_F(DecodeServiceTest, ExceptionInOneJobDoesNotPoisonSiblings)
{
    DecodeServiceParams params;
    params.threads = 4;
    DecodeService service(params);

    std::vector<DecodeRequest> batch = fullBatch();
    batch[1].decoder = nullptr;  // this job must fail alone
    std::vector<std::future<DecodeOutcome>> futures =
        service.submitBatch(std::move(batch));

    EXPECT_EQ(futures[0].get(), golden_[0]);
    EXPECT_THROW(futures[1].get(), FatalError);
    EXPECT_EQ(futures[2].get(), golden_[2]);

    // The service keeps serving after a failed job.
    EXPECT_EQ(service.submit(*decoders_[1], reads_[1]).get(),
              golden_[1]);
}

TEST_F(DecodeServiceTest, DestructorDrainsPendingQueue)
{
    constexpr size_t kBatches = 3;
    std::vector<std::vector<std::future<DecodeOutcome>>> futures;
    {
        DecodeServiceParams params;
        params.threads = 2;
        DecodeService service(params);
        for (size_t b = 0; b < kBatches; ++b)
            futures.push_back(service.submitBatch(fullBatch()));
        // Destruction races the dispatcher: whatever is still queued
        // must be decoded, not dropped.
    }
    for (size_t b = 0; b < kBatches; ++b) {
        for (size_t p = 0; p < kPartitions; ++p) {
            ASSERT_EQ(futures[b][p].wait_for(std::chrono::seconds(0)),
                      std::future_status::ready)
                << "batch " << b << " partition " << p;
            EXPECT_EQ(futures[b][p].get(), golden_[p])
                << "batch " << b << " partition " << p;
        }
    }
}

TEST_F(DecodeServiceTest, EmptyBatchAndEmptyReads)
{
    DecodeService service;
    EXPECT_TRUE(service.submitBatch({}).empty());

    std::future<DecodeOutcome> future =
        service.submit(*decoders_[0], {});
    DecodeOutcome outcome = future.get();
    EXPECT_EQ(outcome.status, DecodeStatus::Ok);
    EXPECT_TRUE(outcome.units.empty());
    EXPECT_EQ(outcome.stats.reads_in, 0u);
    EXPECT_EQ(outcome.stats.units_decoded, 0u);
}

TEST_F(DecodeServiceTest, EmptyReadsRequestInsideBatch)
{
    DecodeService service;
    std::vector<DecodeRequest> batch(2);
    batch[0].decoder = decoders_[0].get();
    batch[0].reads = reads_[0];
    batch[1].decoder = decoders_[1].get();
    batch[1].reads = {};  // legal: decodes to an empty outcome

    std::vector<std::future<DecodeOutcome>> futures =
        service.submitBatch(std::move(batch));
    EXPECT_EQ(futures[0].get(), golden_[0]);
    DecodeOutcome empty = futures[1].get();
    EXPECT_EQ(empty.status, DecodeStatus::Ok);
    EXPECT_TRUE(empty.units.empty());
    EXPECT_EQ(empty.stats.reads_in, 0u);
}

TEST_F(DecodeServiceTest, RejectPolicyShedsAtDepthOne)
{
    telemetry::MetricsRegistry registry;
    DecodeServiceParams params;
    params.threads = 2;
    params.max_queue_depth = 1;
    params.overflow = OverflowPolicy::Reject;
    params.metrics = &registry;
    DecodeService service(params);

    // Occupy the only queue slot: the admitted request counts as
    // in-flight until its future is fulfilled, so the next submit is
    // shed deterministically while this decode runs.
    std::future<DecodeOutcome> admitted =
        service.submit(*decoders_[0], reads_[0]);
    std::future<DecodeOutcome> shed =
        service.submit(*decoders_[1], reads_[1]);

    DecodeOutcome overloaded = shed.get();
    EXPECT_EQ(overloaded.status, DecodeStatus::Overloaded);
    EXPECT_TRUE(overloaded.units.empty());
    EXPECT_EQ(overloaded.stats, DecodeStats{});

    // The shed request never perturbs the admitted one...
    EXPECT_EQ(admitted.get(), golden_[0]);
    // ...and once it resolves, the slot is free again.
    EXPECT_EQ(service.submit(*decoders_[1], reads_[1]).get(),
              golden_[1]);

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("decode_service.requests_submitted"),
              2u);
    EXPECT_EQ(snap.counters.at("decode_service.requests_rejected"),
              1u);
    EXPECT_EQ(snap.counters.at("decode_service.requests_decoded"),
              2u);
    EXPECT_EQ(snap.gauges.at("decode_service.queue_depth"), 0);
}

TEST_F(DecodeServiceTest, BlockPolicyBlocksUntilSpaceFrees)
{
    DecodeServiceParams params;
    params.threads = 2;
    params.max_queue_depth = 1;
    params.overflow = OverflowPolicy::Block;
    DecodeService service(params);

    std::future<DecodeOutcome> first =
        service.submit(*decoders_[0], reads_[0]);
    // This submit must block until the first request completes and
    // frees the only slot (space is released just before the promise
    // fires, so `first` is ready at most instants later).
    std::future<DecodeOutcome> second =
        service.submit(*decoders_[1], reads_[1]);
    EXPECT_EQ(first.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);

    EXPECT_EQ(first.get(), golden_[0]);
    EXPECT_EQ(second.get(), golden_[1]);
}

TEST_F(DecodeServiceTest, BatchLargerThanDepthThrows)
{
    DecodeServiceParams params;
    params.threads = 2;
    params.max_queue_depth = 2;
    DecodeService service(params);
    EXPECT_THROW(service.submitBatch(fullBatch()), FatalError);
    // A fitting batch still goes through afterwards.
    EXPECT_EQ(service.submit(*decoders_[0], reads_[0]).get(),
              golden_[0]);
}

TEST_F(DecodeServiceTest, ShutdownUnblocksBlockedSubmitter)
{
    DecodeServiceParams params;
    params.threads = 2;
    params.max_queue_depth = 1;
    params.overflow = OverflowPolicy::Block;
    DecodeService service(params);

    std::future<DecodeOutcome> admitted =
        service.submit(*decoders_[0], reads_[0]);

    // The contract under test: a submitter parked on the full queue
    // must never hang across shutdown — it either fails with
    // FatalError (woken by shutdown) or, if the first decode already
    // freed the slot, is admitted and fully served. A hang would
    // trip the suite timeout.
    std::atomic<bool> submitter_failed{false};
    std::future<DecodeOutcome> late;
    std::thread submitter([&] {
        try {
            late = service.submit(*decoders_[1], reads_[1]);
        } catch (const FatalError &) {
            submitter_failed = true;
        }
    });
    // Give the submitter time to park on the full queue, then shut
    // down while the first decode is (almost certainly) still busy.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    service.shutdown();
    submitter.join();

    if (!submitter_failed) {
        EXPECT_EQ(late.get(), golden_[1]);  // admitted before shutdown
    }
    EXPECT_EQ(admitted.get(), golden_[0]);  // drained, not dropped
}

TEST_F(DecodeServiceTest, BlockedSubmittersAdmitInArrivalOrder)
{
    // The ticketed-wait contract: submitters parked on a full queue
    // are admitted strictly in the order they arrived. Before the
    // ticket fix, space_cv was a notify_all lottery — any parked
    // submitter could win the freed slot, so this ordering held only
    // by luck. Admission order is observed through the service's own
    // dispatch observer (at depth 1 a request must be dispatched
    // before the next can be admitted, so dispatch order IS
    // admission order, recorded race-free in the dispatcher thread).
    telemetry::MetricsRegistry registry;
    std::mutex order_mutex;
    std::vector<TenantId> dispatch_order;
    DecodeServiceParams params;
    params.threads = 2;
    params.max_queue_depth = 1;
    params.overflow = OverflowPolicy::Block;
    params.metrics = &registry;
    params.on_dispatch = [&](TenantId tenant, size_t) {
        std::lock_guard<std::mutex> lock(order_mutex);
        dispatch_order.push_back(tenant);
    };
    DecodeService service(params);
    telemetry::Counter &submitted =
        registry.counter("decode_service.requests_submitted");

    // A real decode holds the only slot long enough to park the
    // waiters below (each waiter's own request is an empty read set,
    // so admissions resolve quickly once the slot cycles).
    std::future<DecodeOutcome> occupier =
        service.submit(*decoders_[0], reads_[0]);

    constexpr size_t kWaiters = 3;
    std::vector<std::thread> waiters;
    for (size_t w = 0; w < kWaiters; ++w) {
        // Waiter w submits as tenant w + 1 so the dispatch record
        // identifies it (single-request queues at depth 1 make WDRR
        // order degenerate to admission order).
        waiters.emplace_back([&, w] {
            EXPECT_EQ(service
                          .submit(*decoders_[w], {},
                                  static_cast<TenantId>(w + 1))
                          .get()
                          .status,
                      DecodeStatus::Ok);
        });
        // Park each waiter (ticket taken) before starting the next,
        // so arrival order is exactly w = 0, 1, 2. If the occupier
        // finishes early a waiter is admitted instead of parked —
        // the submitted counter then makes progress and the ordering
        // assertion below still holds; the deadline keeps a lost
        // wakeup from hanging the suite.
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
        while (service.blockedSubmitters() < w + 1 &&
               submitted.value() < 2 + w &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
        }
    }
    for (std::thread &waiter : waiters)
        waiter.join();
    EXPECT_EQ(occupier.get(), golden_[0]);

    std::lock_guard<std::mutex> lock(order_mutex);
    EXPECT_EQ(dispatch_order,
              (std::vector<TenantId>{0, 1, 2, 3}));
}

TEST_F(DecodeServiceTest, DecoderDestroyedWhileQueuedIsCaught)
{
    DecodeServiceParams params;
    params.threads = 2;
    DecodeService service(params);

    // Keep the dispatcher busy so the doomed request stays queued.
    std::future<DecodeOutcome> busy =
        service.submit(*decoders_[0], reads_[0]);

    DecoderParams decoder_params;
    auto doomed = std::make_unique<Decoder>(*partitions_[1],
                                            decoder_params);
    std::future<DecodeOutcome> orphan =
        service.submit(*doomed, reads_[1]);
    doomed.reset();  // destroyed before its request ran

    EXPECT_THROW(orphan.get(), FatalError);
    EXPECT_EQ(busy.get(), golden_[0]);
    // The service survives the caught lifetime bug.
    EXPECT_EQ(service.submit(*decoders_[1], reads_[1]).get(),
              golden_[1]);
}

TEST_F(DecodeServiceTest, LatencyHistogramsCountEveryRequest)
{
    // The latency values are wall-clock, but the *accounting* is
    // deterministic for every service thread count: one histogram
    // observation per request on both histograms, counters matching,
    // and the queue-depth gauge back at zero once futures resolve.
    for (size_t threads : {1u, 2u, 8u}) {
        telemetry::MetricsRegistry registry;
        DecodeServiceParams params;
        params.threads = threads;
        params.metrics = &registry;
        DecodeService service(params);

        std::vector<std::future<DecodeOutcome>> futures =
            service.submitBatch(fullBatch());
        for (size_t p = 0; p < kPartitions; ++p)
            EXPECT_EQ(futures[p].get(), golden_[p])
                << "threads=" << threads;

        telemetry::MetricsSnapshot snap = registry.snapshot();
        EXPECT_EQ(
            snap.counters.at("decode_service.batches_submitted"), 1u);
        EXPECT_EQ(
            snap.counters.at("decode_service.requests_submitted"),
            kPartitions);
        EXPECT_EQ(
            snap.counters.at("decode_service.requests_decoded"),
            kPartitions);
        EXPECT_EQ(snap.histograms.at("decode_service.queue_latency_us")
                      .count,
                  kPartitions)
            << "threads=" << threads;
        EXPECT_EQ(
            snap.histograms.at("decode_service.decode_latency_us")
                .count,
            kPartitions)
            << "threads=" << threads;
        EXPECT_EQ(snap.gauges.at("decode_service.queue_depth"), 0);
        EXPECT_EQ(snap.gauges.at("decode_service.pool_threads"),
                  static_cast<int64_t>(threads));
    }
}

// A fed request is submitted before its reads exist: the chunks below
// are pushed only after the dispatcher has taken the request. It
// decodes to decodeAll's units and stats, and counts as one request,
// not as a stream.
TEST_F(DecodeServiceTest, FedRequestChunksMatchDecodeAll)
{
    for (size_t threads : {1u, 4u}) {
        telemetry::MetricsRegistry registry;
        std::promise<void> dispatched;
        DecodeServiceParams params;
        params.threads = threads;
        params.metrics = &registry;
        params.on_dispatch = [&dispatched](TenantId, size_t) {
            dispatched.set_value();
        };
        DecodeService service(params);

        ReadFeedWriter writer;
        std::future<DecodeOutcome> future =
            service.submit(*decoders_[0], writer);
        dispatched.get_future().wait();
        EXPECT_EQ(service.inFlightRequests(), 1u);

        const std::vector<sim::Read> &reads = reads_[0];
        size_t at = 0;
        for (size_t size : {size_t{1}, size_t{0}, size_t{600}, size_t{7},
                            reads.size() - 608}) {
            writer.push(
                {reads.begin() + static_cast<std::ptrdiff_t>(at),
                 reads.begin() + static_cast<std::ptrdiff_t>(at + size)});
            at += size;
        }
        ASSERT_EQ(at, reads.size());
        writer.close();
        EXPECT_EQ(future.get(), golden_[0]) << "threads=" << threads;
        EXPECT_EQ(service.inFlightRequests(), 0u);

        telemetry::MetricsSnapshot snap = registry.snapshot();
        EXPECT_EQ(snap.counters.at("decode_service.requests_submitted"),
                  1u);
        EXPECT_EQ(snap.counters.at("decode_service.batches_submitted"),
                  1u);
        EXPECT_EQ(snap.counters.at("decode_service.requests_decoded"),
                  1u);
        EXPECT_EQ(snap.counters.at("decode_service.requests_failed"),
                  0u);
        EXPECT_EQ(snap.counters.at("decode_service.stream_chunks"), 0u);
        EXPECT_EQ(
            snap.histograms.at("decode_service.queue_latency_us").count,
            1u);
        EXPECT_EQ(
            snap.histograms.at("decode_service.decode_latency_us").count,
            1u);
        EXPECT_EQ(snap.gauges.at("decode_service.queue_depth"), 0);
    }
}

// A producer that leaves without closing its writer (it threw, say)
// fails its request instead of leaving the dispatcher waiting: the
// future carries the error, the queue slot frees, and the service
// keeps decoding.
TEST_F(DecodeServiceTest, DroppedFeedFailsItsRequestAndFreesTheSlot)
{
    telemetry::MetricsRegistry registry;
    DecodeServiceParams params;
    params.threads = 2;
    params.max_queue_depth = 1;
    params.metrics = &registry;
    DecodeService service(params);

    std::future<DecodeOutcome> orphan;
    {
        ReadFeedWriter writer;
        orphan = service.submit(*decoders_[0], writer);
        writer.push({reads_[0].begin(), reads_[0].begin() + 100});
    }
    EXPECT_THROW(orphan.get(), FatalError);
    EXPECT_EQ(service.inFlightRequests(), 0u);

    // The freed slot admits the next request at depth 1.
    EXPECT_EQ(service.submit(*decoders_[1], reads_[1]).get(),
              golden_[1]);

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters.at("decode_service.requests_submitted"),
              2u);
    EXPECT_EQ(snap.counters.at("decode_service.requests_failed"), 1u);
    EXPECT_EQ(snap.counters.at("decode_service.requests_decoded"), 1u);
}

// Admission sheds a fed request at submit, before its producer has
// made a single read: the future is already ready.
TEST_F(DecodeServiceTest, ShedFedRequestIsReadyAtSubmit)
{
    DecodeServiceParams params;
    params.threads = 2;
    params.max_queue_depth = 1;
    params.overflow = OverflowPolicy::Reject;
    params.start_paused = true;
    DecodeService service(params);

    std::future<DecodeOutcome> admitted =
        service.submit(*decoders_[0], reads_[0]);
    ReadFeedWriter writer;
    std::future<DecodeOutcome> shed =
        service.submit(*decoders_[1], writer);
    ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(shed.get().status, DecodeStatus::Overloaded);

    service.resumeDispatch();
    EXPECT_EQ(admitted.get(), golden_[0]);
}

TEST_F(DecodeServiceTest, TenantInstrumentCreationDoesNotRaceExport)
{
    // Regression pin: first sighting of a non-default tenant creates
    // its instruments in the metrics registry. That creation used to
    // run with the service mutex held, ordering service-mutex →
    // registry-mutex against exporters that take only the registry
    // mutex; the creation now happens with the service lock dropped,
    // so concurrent snapshot()/exportText() never contends with
    // admission. Repeated so TSan gets many first-sighting windows;
    // a reintroduced lock-order inversion shows up as a TSan report
    // or a suite-timeout deadlock.
    for (int iteration = 0; iteration < 20; ++iteration) {
        telemetry::MetricsRegistry registry;
        DecodeServiceParams params;
        params.threads = 2;
        params.metrics = &registry;
        DecodeService service(params);

        std::atomic<bool> stop{false};
        std::thread exporter([&] {
            while (!stop.load(std::memory_order_relaxed))
                registry.exportText();
        });

        constexpr size_t kSubmitters = 4;
        std::vector<std::future<DecodeOutcome>> futures(kSubmitters);
        std::vector<std::thread> submitters;
        for (size_t s = 0; s < kSubmitters; ++s) {
            // Each submitter is its tenant's first sighting: the
            // empty read set keeps the decode itself trivial.
            submitters.emplace_back([&, s] {
                futures[s] = service.submit(
                    *decoders_[0], {},
                    static_cast<TenantId>(100 * iteration + s + 1));
            });
        }
        for (std::thread &submitter : submitters)
            submitter.join();
        for (std::future<DecodeOutcome> &future : futures)
            EXPECT_EQ(future.get().status, DecodeStatus::Ok);
        stop.store(true, std::memory_order_relaxed);
        exporter.join();

        telemetry::MetricsSnapshot snap = registry.snapshot();
        for (size_t s = 0; s < kSubmitters; ++s) {
            const std::string prefix =
                "decode_service.tenant." +
                std::to_string(100 * iteration + s + 1) + ".";
            EXPECT_EQ(snap.counters.at(prefix + "requests_admitted"),
                      1u);
            EXPECT_EQ(snap.counters.at(prefix + "requests_rejected"),
                      0u);
        }
    }
}

} // namespace
} // namespace dnastore::core
