/**
 * @file
 * Seeded property-based round-trip fuzz.
 *
 * Each iteration draws a random configuration — block count,
 * partition geometry, sequencer noise, read coverage, streaming chunk
 * size — from a seeded RNG and drives the full channel: encode →
 * synthesize → PCR → sequence → decode. Properties checked per
 * iteration:
 *
 *  1. every block decodes back to its source bytes via
 *     Decoder::decodeAll (noise stays inside the envelope the
 *     round-trip matrix pins, so recovery must hold);
 *  2. the deferred streaming path over the same reads, fed in
 *     random-sized chunks, produces byte-identical units AND stats to
 *     the one-shot decode (the StreamingDecoder contract);
 *  3. the eager streaming path (all (block, 0) expected) emits every
 *     block with a payload byte-identical to the one-shot unit;
 *  4. decoding the same reads with the SIMD kernels forced to the
 *     scalar reference produces byte-identical units AND stats to
 *     the best-ISA decode (the any-ISA determinism contract).
 *
 * On failure the iteration's replay line is printed
 * (`--fuzz-seed=<seed> --iterations=1`), so a CI hit reproduces
 * locally in one run. CI executes a small iteration count (default
 * 3); soak runs pass `--iterations=N` directly to the binary.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "core/decoder.h"
#include "core/partition.h"
#include "sim/pcr.h"
#include "sim/synthesis.h"
#include "support/fixtures.h"

namespace dnastore::core {
namespace {

// Set by main() from --iterations / --fuzz-seed; defaults are the CI
// smoke configuration.
size_t g_iterations = 3;
uint64_t g_base_seed = 0xF022'0000ULL;

/** One randomly drawn channel configuration. */
struct FuzzCase
{
    uint64_t seed = 0;
    size_t partition_index = 0;
    size_t blocks = 0;
    size_t coverage = 0;
    size_t chunk_reads = 0;
    double sub_rate = 0.0;
    double indel_rate = 0.0;
    size_t encode_threads = 1;

    std::string
    describe() const
    {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "seed=%llu partition=%zu blocks=%zu cov=%zu "
                      "chunk=%zu sub=%.4f indel=%.4f threads=%zu — "
                      "replay: --fuzz-seed=%llu --iterations=1",
                      static_cast<unsigned long long>(seed),
                      partition_index, blocks, coverage, chunk_reads,
                      sub_rate, indel_rate, encode_threads,
                      static_cast<unsigned long long>(seed));
        return buf;
    }
};

/** Draw a case from @p seed. Ranges stay inside the noise envelope
 *  the round-trip matrix proves recoverable (sub <= 0.015,
 *  indel <= 0.003, coverage >= 12). */
FuzzCase
drawCase(uint64_t seed)
{
    Rng rng(seed);
    FuzzCase fc;
    fc.seed = seed;
    fc.partition_index = rng.nextBelow(test::kPrimerPairCount);
    fc.blocks = 2 + rng.nextBelow(4);             // 2..5
    fc.coverage = 12 + rng.nextBelow(11);         // 12..22
    fc.chunk_reads = 50 + rng.nextBelow(151);     // 50..200
    fc.sub_rate = 0.002 + rng.nextDouble() * 0.013;   // [0.002, 0.015)
    fc.indel_rate = 0.0005 + rng.nextDouble() * 0.0025;
    fc.encode_threads = 1 + rng.nextBelow(4);     // 1..4
    return fc;
}

/** The case's channel leg: source bytes + sequenced reads. */
struct Channel
{
    std::unique_ptr<Partition> partition;
    Bytes data;
    std::vector<sim::Read> reads;
};

Channel
buildChannel(const FuzzCase &fc)
{
    Channel ch;
    const test::PrimerPair &primers =
        test::primerPair(fc.partition_index);
    ch.partition = std::make_unique<Partition>(
        test::partitionConfig(fc.partition_index), primers.forward,
        primers.reverse,
        static_cast<uint32_t>(13 + fc.partition_index));
    ch.data = test::corpusBlocks(fc.blocks,
                                 Rng::deriveSeed(fc.seed, 1));

    ThreadPool encode_pool(fc.encode_threads);
    sim::SynthesisParams synthesis;
    synthesis.seed = Rng::deriveSeed(fc.seed, 2);
    sim::Pool pool = sim::synthesize(
        ch.partition->encodeFile(ch.data, encode_pool), synthesis);

    sim::PcrParams pcr;
    pcr.cycles = 15;
    sim::Pool product = sim::runPcr(
        pool, {sim::PcrPrimer{primers.forward, 1.0}}, primers.reverse,
        pcr);

    sim::SequencerParams sequencer;
    sequencer.sub_rate = fc.sub_rate;
    sequencer.ins_rate = fc.indel_rate;
    sequencer.del_rate = fc.indel_rate;
    sequencer.seed = Rng::deriveSeed(fc.seed, 3);
    ch.reads = sim::sequencePool(
        product,
        fc.blocks * ch.partition->config().rs_n * fc.coverage,
        sequencer);
    return ch;
}

std::vector<std::vector<sim::Read>>
chunked(const std::vector<sim::Read> &reads, size_t chunk_reads)
{
    std::vector<std::vector<sim::Read>> chunks;
    for (size_t i = 0; i < reads.size(); i += chunk_reads) {
        size_t end = std::min(reads.size(), i + chunk_reads);
        chunks.emplace_back(reads.begin() + i, reads.begin() + end);
    }
    return chunks;
}

void
runIteration(const FuzzCase &fc)
{
    Channel ch = buildChannel(fc);
    DecoderParams params;
    Decoder decoder(*ch.partition, params);

    // Property 1: one-shot recovery of every source block.
    ThreadPool sequential(1);
    DecodeStats one_shot_stats;
    auto one_shot =
        decoder.decodeAll(ch.reads, &one_shot_stats, sequential);
    for (uint64_t block = 0; block < fc.blocks; ++block) {
        auto it = one_shot.find(block);
        ASSERT_NE(it, one_shot.end()) << "block " << block;
        auto version = it->second.versions.find(0);
        ASSERT_NE(version, it->second.versions.end())
            << "block " << block;
        Bytes recovered = version->second;
        recovered.resize(ch.partition->config().block_data_bytes);
        EXPECT_TRUE(test::blockMatches(recovered, ch.data, block));
    }

    // Property 4: forced-scalar kernels == best-ISA kernels, bytes
    // and stats (trivially true when scalar already is the best ISA).
    if (simd::activeIsa() != simd::Isa::Scalar) {
        simd::ScopedForceIsa force(simd::Isa::Scalar);
        Decoder scalar_decoder(*ch.partition, params);
        DecodeStats scalar_stats;
        auto scalar_units =
            scalar_decoder.decodeAll(ch.reads, &scalar_stats);
        EXPECT_EQ(scalar_units, one_shot)
            << "scalar vs " << simd::isaName(simd::bestSupportedIsa());
        EXPECT_EQ(scalar_stats, one_shot_stats);
    }

    const auto chunks = chunked(ch.reads, fc.chunk_reads);

    // Property 2: deferred streaming == one-shot, bytes and stats.
    {
        StreamingDecoder session(*ch.partition, params);
        for (const auto &chunk : chunks)
            EXPECT_EQ(session.feed(chunk), chunk.size());
        DecodeStats streamed_stats;
        auto streamed = session.finish(&streamed_stats);
        EXPECT_EQ(streamed, one_shot);
        EXPECT_EQ(streamed_stats, one_shot_stats);
    }

    // Property 3: eager streaming emits every block byte-identically.
    {
        StreamingParams streaming;
        for (uint64_t block = 0; block < fc.blocks; ++block)
            streaming.expected_units.emplace_back(block, 0u);
        StreamingDecoder session(*ch.partition, params, streaming);
        for (const auto &chunk : chunks) {
            session.feed(chunk);
            if (session.complete())
                break;
        }
        DecodeStats eager_stats;
        auto eager = session.finish(&eager_stats);
        for (uint64_t block = 0; block < fc.blocks; ++block) {
            auto it = eager.find(block);
            ASSERT_NE(it, eager.end()) << "block " << block;
            EXPECT_EQ(it->second.versions.at(0),
                      one_shot.at(block).versions.at(0))
                << "block " << block;
        }
    }
}

TEST(RoundtripFuzzTest, SeededChannelsRoundTrip)
{
    for (size_t i = 0; i < g_iterations; ++i) {
        const FuzzCase fc =
            drawCase(Rng::deriveSeed(g_base_seed, i));
        SCOPED_TRACE(fc.describe());
        runIteration(fc);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace dnastore::core

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        constexpr std::string_view kIterations = "--iterations=";
        constexpr std::string_view kSeed = "--fuzz-seed=";
        if (arg.rfind(kIterations, 0) == 0) {
            dnastore::core::g_iterations = static_cast<size_t>(
                std::strtoull(arg.data() + kIterations.size(),
                              nullptr, 10));
        } else if (arg.rfind(kSeed, 0) == 0) {
            dnastore::core::g_base_seed =
                std::strtoull(arg.data() + kSeed.size(), nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "unknown flag %s\nusage: %s [gtest flags] "
                         "[--iterations=N] [--fuzz-seed=S]\n",
                         argv[i], argv[0]);
            return 2;
        }
    }
    return RUN_ALL_TESTS();
}
