/**
 * @file
 * Decode-pipeline thread-scaling benchmark.
 *
 * Part 1 times Decoder::decodeAll on a seeded noisy-read corpus at 1,
 * 2, 4 and 8 threads. Part 2 times DecodeService batch submission:
 * several partitions' read sets decoded as one batch, sharded across
 * the service's shared pool. Part 3 saturates a two-tenant service
 * (WDRR weights 3:1) with a scripted backlog and measures both the
 * drain throughput and the achieved dispatch ratio in the contended
 * prefix — fairness drift is treated like a determinism break. Part 4
 * streams the part-1 corpus through a StreamingDecoder in fixed-size
 * chunks with every (block, 0) unit expected, measuring wall time and
 * the fraction of the read budget consumed before early termination.
 * All parts verify outputs are byte-identical across thread counts
 * (the determinism contract) and write measurements to
 * BENCH_decode.json so the perf trajectory of the decode hot loop is
 * tracked from PR to PR. CI records this on a multi-core runner and
 * uploads the JSON as an artifact.
 *
 * Every timed section runs with tracing compiled in but sampling off
 * (inactive TraceContexts — the documented one-branch hot path), and
 * the JSON records that as `tracing_enabled_in_timed_sections` so
 * compare_bench.py's --trace-overhead-gate can pin the overhead via
 * the threads=1 rows. With --trace-out PATH an extra UNTIMED batch
 * submission runs with every request traced and exports the spans as
 * Chrome trace-event JSON (Perfetto / chrome://tracing).
 *
 * Usage: decode_scaling [--out PATH] [--blocks N] [--coverage N]
 *                       [--parts N] [--tenants B] [--trace-out PATH]
 *        (B = batches per tenant in the fairness section; 0 skips it)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/simd.h"
#include "core/decode_service.h"
#include "core/decoder.h"
#include "corpus/text.h"
#include "sim/synthesis.h"
#include "telemetry/trace.h"

namespace {

using namespace dnastore;
using Clock = std::chrono::steady_clock;

double
bestOfThree(const std::function<void()> &fn)
{
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        auto start = Clock::now();
        fn();
        std::chrono::duration<double> elapsed = Clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

} // namespace

/** Primer pairs for the batch-submission partitions. */
struct PrimerPair
{
    const char *fwd;
    const char *rev;
};

constexpr PrimerPair kPrimerPairs[] = {
    {"ACTGAGGTCTGCCTGAAGTC", "TGAACGCGGTATTGCAGACC"},
    {"ACGTACGTACGTACGTACGT", "TGCATGCATGCATGCATGCA"},
    {"GATTACAGTCCAGGCATGCA", "CCATGGTTAACGTCAGTGGA"},
    {"TTGCACCGTAGATCCGATAC", "GGTACTTCGAACGGACTTGA"},
};

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_decode.json";
    std::string trace_out;
    size_t blocks = 24;
    size_t coverage = 25;
    size_t parts = 4;
    size_t tenant_batches = 12;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0)
            out_path = argv[i + 1];
        else if (std::strcmp(argv[i], "--blocks") == 0)
            blocks = std::strtoul(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--coverage") == 0)
            coverage = std::strtoul(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--parts") == 0)
            parts = std::strtoul(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--tenants") == 0)
            tenant_batches = std::strtoul(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--trace-out") == 0)
            trace_out = argv[i + 1];
    }
    parts = std::clamp<size_t>(parts, 1, std::size(kPrimerPairs));

    std::printf("=== decode pipeline thread scaling (isa: %s) ===\n\n",
                simd::isaName(simd::activeIsa()));
    core::PartitionConfig config;
    core::Partition partition(
        config, dna::Sequence("ACTGAGGTCTGCCTGAAGTC"),
        dna::Sequence("TGAACGCGGTATTGCAGACC"), 13);
    core::Bytes data =
        corpus::generateBytes(blocks * config.block_data_bytes, 77);
    sim::SynthesisParams synthesis;
    sim::Pool pool =
        sim::synthesize(partition.encodeFile(data), synthesis);

    sim::SequencerParams sequencer;
    sequencer.sub_rate = 0.01;
    sequencer.ins_rate = 0.002;
    sequencer.del_rate = 0.002;
    sequencer.seed = 3;
    const size_t budget = blocks * config.rs_n * coverage;
    std::vector<sim::Read> reads =
        sim::sequencePool(pool, budget, sequencer);
    std::printf("corpus: %zu blocks, %zu noisy reads\n\n", blocks,
                reads.size());

    const size_t thread_counts[] = {1, 2, 4, 8};
    std::map<uint64_t, core::BlockVersions> baseline_units;
    core::DecodeStats baseline_stats;
    std::vector<double> seconds;
    bool identical = true;

    std::printf("%8s  %10s  %8s  %9s\n", "threads", "seconds",
                "speedup", "identical");
    core::Decoder decoder(partition, core::DecoderParams{});
    for (size_t threads : thread_counts) {
        ThreadPool thread_pool(threads);
        std::map<uint64_t, core::BlockVersions> units;
        core::DecodeStats stats;
        double secs = bestOfThree([&] {
            stats = core::DecodeStats{};
            units = decoder.decodeAll(reads, &stats, thread_pool);
        });
        seconds.push_back(secs);

        bool same = true;
        if (threads == 1) {
            baseline_units = units;
            baseline_stats = stats;
        } else {
            same = units == baseline_units &&
                   stats == baseline_stats;
            identical = identical && same;
        }
        std::printf("%8zu  %10.3f  %7.2fx  %9s\n", threads, secs,
                    seconds.front() / secs, same ? "yes" : "NO");
    }
    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: decode output changed with thread "
                     "count\n");
        return 1;
    }
    std::printf("\nunits decoded: %zu/%zu, hardware concurrency: "
                "%u\n",
                baseline_stats.units_decoded, blocks,
                std::thread::hardware_concurrency());

    // Part 2: batch submission — `parts` partitions' read sets
    // decoded as one DecodeService batch sharded over a shared pool.
    std::printf("\n=== DecodeService batch submission "
                "(%zu partitions) ===\n\n",
                parts);
    const size_t part_blocks = std::max<size_t>(1, blocks / parts);
    std::vector<std::unique_ptr<core::Partition>> partitions;
    std::vector<std::unique_ptr<core::Decoder>> decoders;
    std::vector<std::vector<sim::Read>> part_reads;
    for (size_t p = 0; p < parts; ++p) {
        core::PartitionConfig part_config;
        part_config.index_seed += 17 * p;
        part_config.scramble_seed += 29 * p;
        partitions.push_back(std::make_unique<core::Partition>(
            part_config, dna::Sequence(kPrimerPairs[p].fwd),
            dna::Sequence(kPrimerPairs[p].rev),
            static_cast<uint32_t>(13 + p)));
        core::Bytes part_data = corpus::generateBytes(
            part_blocks * part_config.block_data_bytes, 77 + p);
        sim::SynthesisParams part_synthesis;
        part_synthesis.seed = 1 + p;
        sim::Pool part_pool = sim::synthesize(
            partitions[p]->encodeFile(part_data), part_synthesis);
        sim::SequencerParams part_sequencer = sequencer;
        part_sequencer.seed = 3 + 131 * p;
        part_reads.push_back(sim::sequencePool(
            part_pool, part_blocks * part_config.rs_n * coverage,
            part_sequencer));
        decoders.push_back(std::make_unique<core::Decoder>(
            *partitions[p], core::DecoderParams{}));
    }

    std::vector<double> batch_seconds;
    std::vector<core::DecodeOutcome> batch_baseline;
    bool batch_identical = true;
    std::printf("%8s  %10s  %8s  %10s  %9s\n", "threads", "seconds",
                "speedup", "blocks/s", "identical");
    for (size_t threads : thread_counts) {
        core::DecodeServiceParams service_params;
        service_params.threads = threads;
        core::DecodeService service(service_params);

        std::vector<core::DecodeOutcome> outcomes;
        double secs = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            // Build the request batch (read-set copies) outside the
            // timed region: the measurement is the service, not the
            // caller's memcpy.
            std::vector<core::DecodeRequest> batch(parts);
            for (size_t p = 0; p < parts; ++p) {
                batch[p].decoder = decoders[p].get();
                batch[p].reads = part_reads[p];
            }
            auto start = Clock::now();
            std::vector<std::future<core::DecodeOutcome>> futures =
                service.submitBatch(std::move(batch));
            outcomes.clear();
            for (std::future<core::DecodeOutcome> &future : futures)
                outcomes.push_back(future.get());
            std::chrono::duration<double> elapsed =
                Clock::now() - start;
            secs = std::min(secs, elapsed.count());
        }
        batch_seconds.push_back(secs);

        bool same = true;
        if (threads == 1)
            batch_baseline = outcomes;
        else
            same = outcomes == batch_baseline;
        batch_identical = batch_identical && same;
        std::printf("%8zu  %10.3f  %7.2fx  %10.1f  %9s\n", threads,
                    secs, batch_seconds.front() / secs,
                    static_cast<double>(parts * part_blocks) / secs,
                    same ? "yes" : "NO");
    }
    if (!batch_identical) {
        std::fprintf(stderr, "FAIL: batch decode output changed with "
                             "thread count\n");
        return 1;
    }

    // Part 3: two-tenant fairness under saturation. A heavy tenant
    // (WDRR weight 3) and a light tenant (weight 1) each enqueue
    // `tenant_batches` single-partition batches against a paused
    // dispatcher, so the whole backlog contends; the dispatch
    // observer then yields the exact interleaving. While the heavy
    // tenant is backlogged, dispatches must split 3:1 (±1 light
    // batch) — drift is treated like a determinism break.
    double tenant_seconds = 0.0;
    double tenant_ratio = 0.0;
    size_t contended_heavy = 0;
    size_t contended_light = 0;
    bool tenant_fair = true;
    if (tenant_batches > 0) {
        std::printf("\n=== two-tenant fairness (weights 3:1, %zu "
                    "batches each) ===\n\n",
                    tenant_batches);
        core::DecodeServiceParams service_params;
        service_params.threads = 4;
        service_params.tenants[1].weight = 3;
        service_params.tenants[2].weight = 1;
        service_params.start_paused = true;
        std::mutex dispatch_mutex;
        std::vector<core::TenantId> dispatch_order;
        service_params.on_dispatch =
            [&dispatch_mutex, &dispatch_order](core::TenantId tenant,
                                               size_t) {
                std::lock_guard<std::mutex> lock(dispatch_mutex);
                dispatch_order.push_back(tenant);
            };
        core::DecodeService service(service_params);

        std::vector<std::future<core::DecodeOutcome>> futures;
        for (core::TenantId tenant : {core::TenantId{1},
                                      core::TenantId{2}}) {
            for (size_t b = 0; b < tenant_batches; ++b) {
                futures.push_back(service.submit(
                    *decoders[b % parts], part_reads[b % parts],
                    tenant));
            }
        }

        auto start = Clock::now();
        service.resumeDispatch();
        for (std::future<core::DecodeOutcome> &future : futures) {
            if (future.get().status != core::DecodeStatus::Ok) {
                std::fprintf(stderr, "FAIL: tenant batch not Ok\n");
                return 1;
            }
        }
        std::chrono::duration<double> elapsed = Clock::now() - start;
        tenant_seconds = elapsed.count();

        // Contended prefix: through the heavy tenant's last dispatch
        // both queues were non-empty, and the light dispatch that
        // closes that WDRR round was earned under contention too —
        // cutting before it would skew a perfect 3:1 split to 4:1.
        std::lock_guard<std::mutex> lock(dispatch_mutex);
        size_t last_heavy = 0;
        for (size_t i = 0; i < dispatch_order.size(); ++i) {
            if (dispatch_order[i] == 1)
                last_heavy = i;
        }
        if (last_heavy + 1 < dispatch_order.size() &&
            dispatch_order[last_heavy + 1] == 2)
            ++last_heavy;
        for (size_t i = 0; i <= last_heavy; ++i) {
            contended_heavy += dispatch_order[i] == 1 ? 1 : 0;
            contended_light += dispatch_order[i] == 2 ? 1 : 0;
        }
        tenant_ratio =
            contended_light > 0
                ? static_cast<double>(contended_heavy) /
                      static_cast<double>(contended_light)
                : 0.0;
        tenant_fair =
            std::abs(static_cast<double>(contended_heavy) -
                     3.0 * static_cast<double>(contended_light)) <=
            3.0;
        std::printf("contended dispatches: heavy %zu, light %zu "
                    "(ratio %.2f, target 3.00)\n",
                    contended_heavy, contended_light, tenant_ratio);
        std::printf("drain: %.3f s, %.1f blocks/s, fair: %s\n",
                    tenant_seconds,
                    static_cast<double>(2 * tenant_batches *
                                        part_blocks) /
                        tenant_seconds,
                    tenant_fair ? "yes" : "NO");
        if (!tenant_fair) {
            std::fprintf(stderr,
                         "FAIL: 3:1 tenant weights dispatched %zu:%zu "
                         "under saturation\n",
                         contended_heavy, contended_light);
            return 1;
        }
    }

    // Part 4: streaming incremental decode with early termination on
    // the part-1 corpus. Reads arrive in fixed chunks; every
    // (block, 0) unit is expected, so the session stops consuming the
    // moment the whole file is recoverable. Identity is checked per
    // emitted unit against the one-shot baseline, and the JSON
    // records how much of the read budget the session consumed.
    constexpr size_t kStreamChunk = 500;
    std::printf("\n=== streaming incremental decode (chunks of %zu "
                "reads) ===\n\n",
                kStreamChunk);
    std::vector<double> stream_seconds;
    size_t stream_consumed = 0;
    size_t stream_skipped = 0;
    size_t stream_early = 0;
    bool stream_identical = true;
    std::printf("%8s  %10s  %12s  %10s  %9s\n", "threads", "seconds",
                "vs one-shot", "consumed", "identical");
    for (size_t t = 0; t < std::size(thread_counts); ++t) {
        const size_t threads = thread_counts[t];
        ThreadPool thread_pool(threads);
        core::StreamingParams streaming;
        for (uint64_t block = 0; block < blocks; ++block)
            streaming.expected_units.push_back(
                {block, 0u});

        core::DecodeStats stats;
        std::map<uint64_t, core::BlockVersions> units;
        double secs = bestOfThree([&] {
            core::StreamingDecoder session(
                partition, core::DecoderParams{}, streaming);
            for (size_t i = 0;
                 i < reads.size() && !session.complete();
                 i += kStreamChunk) {
                std::vector<sim::Read> chunk(
                    reads.begin() + i,
                    reads.begin() +
                        std::min(reads.size(), i + kStreamChunk));
                session.feed(chunk, thread_pool);
            }
            stats = core::DecodeStats{};
            units = session.finish(&stats, thread_pool);
        });
        stream_seconds.push_back(secs);

        bool same = true;
        for (const auto &[block, baseline_versions] : baseline_units) {
            auto it = units.find(block);
            auto base_zero = baseline_versions.versions.find(0);
            if (base_zero == baseline_versions.versions.end())
                continue;
            if (it == units.end() ||
                !it->second.versions.count(0) ||
                it->second.versions.at(0) != base_zero->second) {
                same = false;
                break;
            }
        }
        if (t == 0) {
            stream_consumed = stats.reads_consumed;
            stream_skipped = stats.reads_skipped;
            stream_early = stats.units_emitted_early;
        } else {
            // Reads-consumed-at-completion is part of the
            // determinism contract, not just the payload bytes.
            same = same && stats.reads_consumed == stream_consumed;
        }
        stream_identical = stream_identical && same;
        std::printf("%8zu  %10.3f  %11.2fx  %10zu  %9s\n", threads,
                    secs, seconds[t] / secs, stats.reads_consumed,
                    same ? "yes" : "NO");
    }
    const double consumed_fraction =
        reads.empty() ? 0.0
                      : static_cast<double>(stream_consumed) /
                            static_cast<double>(reads.size());
    std::printf("\nearly units: %zu/%zu, consumed %zu/%zu reads "
                "(%.0f%%)\n",
                stream_early, blocks, stream_consumed, reads.size(),
                100.0 * consumed_fraction);
    if (!stream_identical) {
        std::fprintf(stderr, "FAIL: streaming decode diverged from "
                             "the one-shot baseline\n");
        return 1;
    }

    // Untimed traced run: every request sampled, spans exported as
    // Chrome trace-event JSON. Kept out of every timed loop so the
    // recorded numbers always describe the sampling-off hot path.
    if (!trace_out.empty()) {
        telemetry::TraceCollectorConfig trace_config;
        trace_config.sample_every = 1;
        telemetry::TraceCollector collector(trace_config);
        core::DecodeServiceParams service_params;
        service_params.threads = 4;
        service_params.tracer = &collector;
        {
            core::DecodeService service(service_params);
            std::vector<core::DecodeRequest> batch(parts);
            for (size_t p = 0; p < parts; ++p) {
                batch[p].decoder = decoders[p].get();
                batch[p].reads = part_reads[p];
            }
            std::vector<std::future<core::DecodeOutcome>> futures =
                service.submitBatch(std::move(batch));
            for (std::future<core::DecodeOutcome> &future : futures)
                (void)future.get();
        }
        std::FILE *trace_file = std::fopen(trace_out.c_str(), "w");
        if (!trace_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         trace_out.c_str());
            return 1;
        }
        const std::string chrome = collector.exportChromeJson();
        std::fwrite(chrome.data(), 1, chrome.size(), trace_file);
        std::fclose(trace_file);
        std::printf("\nwrote %s (%zu traces)\n", trace_out.c_str(),
                    collector.traceCount());
    }

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    // Arena high-water marks across the whole process: how much
    // scratch the per-read kernels ever reserved, and proof the
    // steady-state loops stopped growing it.
    const ArenaGlobalStats arena_stats = Arena::globalStats();
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"decode_scaling\",\n");
    std::fprintf(out, "  \"isa\": \"%s\",\n",
                 simd::isaName(simd::activeIsa()));
    std::fprintf(out, "  \"arena_chunks_allocated\": %llu,\n",
                 static_cast<unsigned long long>(
                     arena_stats.chunks_allocated));
    std::fprintf(out, "  \"arena_bytes_reserved\": %llu,\n",
                 static_cast<unsigned long long>(
                     arena_stats.bytes_reserved));
    std::fprintf(out,
                 "  \"tracing_enabled_in_timed_sections\": false,\n");
    std::fprintf(out, "  \"corpus_blocks\": %zu,\n", blocks);
    std::fprintf(out, "  \"reads\": %zu,\n", reads.size());
    std::fprintf(out, "  \"units_decoded\": %zu,\n",
                 baseline_stats.units_decoded);
    std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"identical_across_threads\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(out, "  \"results\": [\n");
    for (size_t i = 0; i < seconds.size(); ++i) {
        std::fprintf(out,
                     "    {\"threads\": %zu, \"seconds\": %.4f, "
                     "\"speedup\": %.3f}%s\n",
                     thread_counts[i], seconds[i],
                     seconds.front() / seconds[i],
                     i + 1 < seconds.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"batch_partitions\": %zu,\n", parts);
    std::fprintf(out, "  \"batch_blocks_per_partition\": %zu,\n",
                 part_blocks);
    std::fprintf(out, "  \"batch_identical_across_threads\": %s,\n",
                 batch_identical ? "true" : "false");
    std::fprintf(out, "  \"batch_results\": [\n");
    for (size_t i = 0; i < batch_seconds.size(); ++i) {
        std::fprintf(out,
                     "    {\"threads\": %zu, \"seconds\": %.4f, "
                     "\"speedup\": %.3f, \"blocks_per_sec\": %.1f}%s\n",
                     thread_counts[i], batch_seconds[i],
                     batch_seconds.front() / batch_seconds[i],
                     static_cast<double>(parts * part_blocks) /
                         batch_seconds[i],
                     i + 1 < batch_seconds.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"streaming_chunk_reads\": %zu,\n",
                 kStreamChunk);
    std::fprintf(out, "  \"streaming_reads_consumed\": %zu,\n",
                 stream_consumed);
    std::fprintf(out, "  \"streaming_reads_skipped\": %zu,\n",
                 stream_skipped);
    std::fprintf(out, "  \"streaming_units_early\": %zu,\n",
                 stream_early);
    std::fprintf(out, "  \"streaming_consumed_fraction\": %.3f,\n",
                 consumed_fraction);
    std::fprintf(out,
                 "  \"streaming_identical_across_threads\": %s,\n",
                 stream_identical ? "true" : "false");
    std::fprintf(out, "  \"streaming_results\": [\n");
    for (size_t i = 0; i < stream_seconds.size(); ++i) {
        std::fprintf(
            out,
            "    {\"threads\": %zu, \"seconds\": %.4f, "
            "\"speedup_vs_oneshot\": %.3f}%s\n",
            thread_counts[i], stream_seconds[i],
            seconds[i] / stream_seconds[i],
            i + 1 < stream_seconds.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"tenant_batches_per_tenant\": %zu,\n",
                 tenant_batches);
    if (tenant_batches > 0) {
        std::fprintf(out, "  \"tenant_weights\": [3, 1],\n");
        std::fprintf(out,
                     "  \"tenant_contended_dispatches\": [%zu, %zu],\n",
                     contended_heavy, contended_light);
        std::fprintf(out, "  \"tenant_dispatch_ratio\": %.3f,\n",
                     tenant_ratio);
        std::fprintf(out, "  \"tenant_fair_within_one\": %s,\n",
                     tenant_fair ? "true" : "false");
        std::fprintf(out,
                     "  \"tenant_results\": {\"threads\": 4, "
                     "\"seconds\": %.4f, \"blocks_per_sec\": %.1f}\n",
                     tenant_seconds,
                     static_cast<double>(2 * tenant_batches *
                                         part_blocks) /
                         tenant_seconds);
    } else {
        std::fprintf(out, "  \"tenant_results\": null\n");
    }
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
