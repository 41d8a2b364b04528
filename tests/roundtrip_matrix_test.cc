/**
 * @file
 * Fault-injection round-trip test matrix.
 *
 * Every cell drives the full channel — parallel encode → synthesis →
 * PCR amplification → noisy sequencing → decode — over a grid of
 * sequencer error rates × read coverage × partition counts with
 * seeded RNG streams, and asserts:
 *
 *  1. recovered bytes: every block of every partition decodes back to
 *     its source slice through both Decoder::decodeAll and a
 *     DecodeService batch;
 *  2. determinism: the service outcome (units AND DecodeStats) is
 *     byte-identical to the sequential golden decode, for the
 *     single-threaded and the sharded service alike;
 *  3. a literal golden DecodeStats pin for one canonical cell, so a
 *     future scaling PR that silently perturbs any pipeline stage
 *     trips this suite rather than shipping a behavior change.
 *
 * Cells run as separate gtest parameterized cases, so `ctest -j`
 * shards the matrix across cores.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/decode_service.h"
#include "sim/pcr.h"
#include "sim/synthesis.h"
#include "support/fixtures.h"

namespace dnastore::core {
namespace {

constexpr size_t kBlocksPerPartition = 5;

/** One matrix cell: channel noise x read budget x device sharding. */
struct Cell
{
    double sub_rate;     ///< sequencer substitution rate
    double indel_rate;   ///< sequencer insertion = deletion rate
    size_t coverage;     ///< reads per molecule
    size_t partitions;   ///< read sets decoded in one batch
};

std::string
cellName(const testing::TestParamInfo<Cell> &info)
{
    const Cell &cell = info.param;
    return "sub" + std::to_string(int(cell.sub_rate * 10000)) +
           "_cov" + std::to_string(cell.coverage) + "_parts" +
           std::to_string(cell.partitions);
}

/** Everything one partition contributes to a cell. */
struct PartitionUnderTest
{
    std::unique_ptr<Partition> partition;
    std::unique_ptr<Decoder> decoder;
    Bytes data;
    std::vector<sim::Read> reads;
};

/**
 * Build partition @p p's leg of the channel: encode (alternating
 * sequential/parallel to cover both paths), synthesize, amplify with
 * the partition's main primers, and sequence at the cell's error
 * rates. All seeds derive from (cell, p) so every run is identical.
 */
PartitionUnderTest
buildLeg(const Cell &cell, size_t p)
{
    PartitionUnderTest leg;
    const test::PrimerPair &primers = test::primerPair(p);
    leg.partition = std::make_unique<Partition>(
        test::partitionConfig(p), primers.forward, primers.reverse,
        static_cast<uint32_t>(13 + p));
    leg.data =
        test::corpusBlocks(kBlocksPerPartition, test::kTestSeed + p);

    ThreadPool encode_pool(p % 2 == 0 ? 1 : 4);
    sim::SynthesisParams synthesis;
    synthesis.seed = 1000 + p;
    sim::Pool pool = sim::synthesize(
        leg.partition->encodeFile(leg.data, encode_pool), synthesis);

    // Whole-partition amplification (the readAll access pattern).
    sim::PcrParams pcr;
    pcr.cycles = 15;
    sim::Pool product = sim::runPcr(
        pool, {sim::PcrPrimer{primers.forward, 1.0}},
        primers.reverse, pcr);

    sim::SequencerParams sequencer;
    sequencer.sub_rate = cell.sub_rate;
    sequencer.ins_rate = cell.indel_rate;
    sequencer.del_rate = cell.indel_rate;
    sequencer.seed = 7 + 131 * p + 31 * cell.coverage +
                     static_cast<uint64_t>(cell.sub_rate * 1e5);
    size_t budget = kBlocksPerPartition *
                    leg.partition->config().rs_n * cell.coverage;
    leg.reads = sim::sequencePool(product, budget, sequencer);

    leg.decoder =
        std::make_unique<Decoder>(*leg.partition, DecoderParams{});
    return leg;
}

class RoundtripMatrixTest : public ::testing::TestWithParam<Cell>
{};

TEST_P(RoundtripMatrixTest, RecoversBytesAndServiceMatchesGolden)
{
    const Cell &cell = GetParam();
    std::vector<PartitionUnderTest> legs;
    for (size_t p = 0; p < cell.partitions; ++p)
        legs.push_back(buildLeg(cell, p));

    // Sequential golden decode per partition + recovered-byte check.
    ThreadPool sequential(1);
    std::vector<DecodeOutcome> golden(cell.partitions);
    for (size_t p = 0; p < cell.partitions; ++p) {
        golden[p].units = legs[p].decoder->decodeAll(
            legs[p].reads, &golden[p].stats, sequential);
        EXPECT_EQ(golden[p].stats.units_decoded, kBlocksPerPartition)
            << "partition " << p;
        for (uint64_t block = 0; block < kBlocksPerPartition; ++block) {
            auto it = golden[p].units.find(block);
            ASSERT_NE(it, golden[p].units.end())
                << "partition " << p << " block " << block;
            auto version = it->second.versions.find(0);
            ASSERT_NE(version, it->second.versions.end())
                << "partition " << p << " block " << block;
            Bytes recovered = version->second;
            recovered.resize(
                legs[p].partition->config().block_data_bytes);
            EXPECT_TRUE(test::blockMatches(recovered, legs[p].data,
                                           block))
                << "partition " << p;
        }
    }

    // The same read sets through a DecodeService batch must match the
    // goldens exactly, single-threaded and sharded alike.
    for (size_t threads : {1u, 4u}) {
        DecodeServiceParams params;
        params.threads = threads;
        DecodeService service(params);
        std::vector<DecodeRequest> batch(cell.partitions);
        for (size_t p = 0; p < cell.partitions; ++p) {
            batch[p].decoder = legs[p].decoder.get();
            batch[p].reads = legs[p].reads;
        }
        auto futures = service.submitBatch(std::move(batch));
        for (size_t p = 0; p < cell.partitions; ++p) {
            DecodeOutcome outcome = futures[p].get();
            EXPECT_EQ(outcome.units, golden[p].units)
                << "threads=" << threads << " partition=" << p;
            EXPECT_EQ(outcome.stats, golden[p].stats)
                << "threads=" << threads << " partition=" << p;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RoundtripMatrixTest,
    testing::Values(Cell{0.004, 0.0008, 12, 1},
                    Cell{0.004, 0.0008, 12, 3},
                    Cell{0.004, 0.0008, 22, 1},
                    Cell{0.004, 0.0008, 22, 3},
                    Cell{0.015, 0.003, 12, 1},
                    Cell{0.015, 0.003, 12, 3},
                    Cell{0.015, 0.003, 22, 1},
                    Cell{0.015, 0.003, 22, 3}),
    cellName);

/**
 * Synthesis-side fault injection: molecule dropout (erasures for the
 * outer code) plus erroneous byproduct species (clustering and
 * consensus stress) on top of sequencer noise.
 */
TEST(RoundtripFaultsTest, SynthesisDropoutAndByproductsStillRecover)
{
    const test::PrimerPair &primers = test::primerPair(1);
    Partition partition(test::partitionConfig(1), primers.forward,
                        primers.reverse, 14);
    Bytes data =
        test::corpusBlocks(kBlocksPerPartition, test::kTestSeed + 9);

    sim::SynthesisParams synthesis;
    synthesis.seed = 4242;
    synthesis.dropout_rate = 0.02;
    synthesis.byproduct_fraction = 0.03;
    synthesis.byproduct_variants = 2;
    sim::Pool pool =
        sim::synthesize(partition.encodeFile(data), synthesis);

    sim::PcrParams pcr;
    pcr.cycles = 15;
    sim::Pool product = sim::runPcr(
        pool, {sim::PcrPrimer{primers.forward, 1.0}}, primers.reverse,
        pcr);

    sim::SequencerParams sequencer;
    sequencer.sub_rate = 0.01;
    sequencer.ins_rate = 0.002;
    sequencer.del_rate = 0.002;
    sequencer.seed = 97;
    std::vector<sim::Read> reads = sim::sequencePool(
        product, kBlocksPerPartition * partition.config().rs_n * 25,
        sequencer);

    Decoder decoder(partition, DecoderParams{});
    ThreadPool sequential(1);
    DecodeOutcome golden;
    golden.units = decoder.decodeAll(reads, &golden.stats, sequential);
    EXPECT_EQ(golden.stats.units_decoded, kBlocksPerPartition);
    for (uint64_t block = 0; block < kBlocksPerPartition; ++block) {
        Bytes recovered = golden.units.at(block).versions.at(0);
        recovered.resize(partition.config().block_data_bytes);
        EXPECT_TRUE(test::blockMatches(recovered, data, block));
    }

    DecodeServiceParams service_params;
    service_params.threads = 4;
    DecodeService service(service_params);
    EXPECT_EQ(service.submit(decoder, reads).get(), golden);
}

/**
 * Literal golden pin for one canonical cell (high noise, low
 * coverage, single partition). These counters are a fingerprint of
 * the whole pipeline — primer filter, clustering, consensus, index
 * decode, RS errors-and-erasures — under fixed seeds; any drift means
 * an (intended or not) behavior change, and the numbers here must be
 * re-derived and justified in that PR.
 */
TEST(RoundtripGoldenTest, CanonicalCellStatsArePinned)
{
    Cell cell{0.015, 0.003, 12, 1};
    PartitionUnderTest leg = buildLeg(cell, 0);
    DecodeStats stats;
    auto units = leg.decoder->decodeAll(leg.reads, &stats);

    // Pinned fingerprint (see header comment before editing). The 3
    // failed units are spurious addresses assembled from noisy index
    // decodes; the 5 real units all decode.
    DecodeStats golden;
    golden.reads_in = 900;
    golden.reads_primer_matched = 899;
    golden.clusters_total = 182;
    golden.clusters_used = 97;
    golden.strands_recovered = 94;
    golden.duplicate_addresses = 16;
    golden.index_rejects = 3;
    golden.units_attempted = 8;
    golden.units_decoded = 5;
    golden.units_failed = 3;
    golden.symbol_errors_corrected = 12;
    golden.erasures_filled = 0;
    golden.candidate_retries = 3;
    // One-shot decode consumes every read it is offered: skipped
    // reads exist only for early-terminated streaming sessions.
    golden.reads_consumed = 900;
    golden.reads_skipped = 0;
    golden.units_emitted_early = 0;
    EXPECT_EQ(stats, golden);
    EXPECT_EQ(units.size(), 5u);
}

} // namespace
} // namespace dnastore::core
