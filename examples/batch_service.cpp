/**
 * @file
 * Batch decoding through the DecodeService.
 *
 * Serves the multi-partition read path the way a storage frontend
 * would: three partitions are encoded (in parallel) and synthesized,
 * their sequencing runs land as read sets, and one DecodeService
 * batch decodes them all — per-partition jobs sharded across a shared
 * thread pool, futures resolved in submission order. The decoded
 * bytes are compared against the source files, and the service is
 * deterministic: the batch output is byte-identical to what a
 * sequential Decoder::decodeAll of each read set would produce.
 */

#include <cstdio>
#include <future>
#include <memory>
#include <vector>

#include "core/decode_service.h"
#include "corpus/text.h"
#include "sim/synthesis.h"

using namespace dnastore;

namespace {

struct PrimerPair
{
    const char *fwd;
    const char *rev;
};

constexpr PrimerPair kPrimerPairs[] = {
    {"ACTGAGGTCTGCCTGAAGTC", "TGAACGCGGTATTGCAGACC"},
    {"ACGTACGTACGTACGTACGT", "TGCATGCATGCATGCATGCA"},
    {"GATTACAGTCCAGGCATGCA", "CCATGGTTAACGTCAGTGGA"},
};

} // namespace

int
main()
{
    constexpr size_t kPartitions = 3;
    constexpr size_t kBlocks = 6;
    constexpr size_t kCoverage = 25;

    std::printf("=== DecodeService batch decode ===\n\n");

    // Encode one file per partition (per-block encoding fans out over
    // the process-wide ThreadPool::shared()) and sequence each pool.
    std::vector<std::unique_ptr<core::Partition>> partitions;
    std::vector<std::unique_ptr<core::Decoder>> decoders;
    std::vector<core::Bytes> files;
    std::vector<std::vector<sim::Read>> read_sets;
    for (size_t p = 0; p < kPartitions; ++p) {
        core::PartitionConfig config;
        config.index_seed += 17 * p;
        config.scramble_seed += 29 * p;
        partitions.push_back(std::make_unique<core::Partition>(
            config, dna::Sequence(kPrimerPairs[p].fwd),
            dna::Sequence(kPrimerPairs[p].rev),
            static_cast<uint32_t>(13 + p)));
        files.push_back(corpus::generateBytes(
            kBlocks * config.block_data_bytes, 77 + p));

        sim::SynthesisParams synthesis;
        synthesis.seed = 1 + p;
        sim::Pool pool = sim::synthesize(
            partitions[p]->encodeFile(files[p]), synthesis);

        sim::SequencerParams sequencer;
        sequencer.sub_rate = 0.01;
        sequencer.ins_rate = 0.002;
        sequencer.del_rate = 0.002;
        sequencer.seed = 3 + 131 * p;
        read_sets.push_back(sim::sequencePool(
            pool, kBlocks * config.rs_n * kCoverage, sequencer));

        decoders.push_back(std::make_unique<core::Decoder>(
            *partitions[p], core::DecoderParams{}));
        std::printf("partition %zu: %zu blocks encoded, %zu reads\n",
                    p, kBlocks, read_sets[p].size());
    }

    // One batch, one shared pool, futures in submission order.
    core::DecodeService service;  // threads = 0: all cores
    std::vector<core::DecodeRequest> batch(kPartitions);
    for (size_t p = 0; p < kPartitions; ++p) {
        batch[p].decoder = decoders[p].get();
        batch[p].reads = read_sets[p];
    }
    std::vector<std::future<core::DecodeOutcome>> futures =
        service.submitBatch(std::move(batch));

    bool all_exact = true;
    for (size_t p = 0; p < kPartitions; ++p) {
        core::DecodeOutcome outcome = futures[p].get();
        size_t exact = 0;
        for (uint64_t block = 0; block < kBlocks; ++block) {
            auto it = outcome.units.find(block);
            if (it == outcome.units.end())
                continue;
            auto version = it->second.versions.find(0);
            if (version == it->second.versions.end())
                continue;
            core::Bytes recovered = version->second;
            size_t block_bytes =
                partitions[p]->config().block_data_bytes;
            recovered.resize(block_bytes);
            core::Bytes expected(
                files[p].begin() +
                    static_cast<ptrdiff_t>(block * block_bytes),
                files[p].begin() +
                    static_cast<ptrdiff_t>((block + 1) * block_bytes));
            if (recovered == expected)
                ++exact;
        }
        std::printf("partition %zu: %zu/%zu units decoded, %zu/%zu "
                    "blocks exact\n",
                    p, outcome.stats.units_decoded, kBlocks, exact,
                    kBlocks);
        all_exact = all_exact && exact == kBlocks;
    }

    std::printf("\n%s\n", all_exact
                              ? "all partitions recovered exactly"
                              : "RECOVERY INCOMPLETE");
    return all_exact ? 0 : 1;
}
