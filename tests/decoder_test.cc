/**
 * @file
 * Tests for the full decode pipeline (Section 8) on simulated reads.
 */

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/thread_pool.h"
#include "core/decoder.h"
#include "sim/pcr.h"
#include "sim/synthesis.h"
#include "support/fixtures.h"

namespace dnastore::core {
namespace {

const dna::Sequence &kFwd = test::fwdPrimer();
const dna::Sequence &kRev = test::revPrimer();

/** Small end-to-end fixture: 20-block file, synthesized pool. */
class DecoderTest : public ::testing::Test
{
  protected:
    PartitionConfig config_;
    std::unique_ptr<Partition> partition_;
    Bytes data_;
    sim::Pool pool_;

    void
    SetUp() override
    {
        partition_ =
            std::make_unique<Partition>(config_, kFwd, kRev, 13);
        data_ = test::corpusBlocks(20, 77);
        sim::SynthesisParams synthesis;
        pool_ = sim::synthesize(partition_->encodeFile(data_),
                                synthesis);
    }

    Bytes
    blockBytes(uint64_t block) const
    {
        return Bytes(data_.begin() + block * 256,
                     data_.begin() + (block + 1) * 256);
    }

    std::vector<sim::Read>
    sequenceWholePool(size_t reads, uint64_t seed = 7) const
    {
        sim::SequencerParams params;
        params.seed = seed;
        return sim::sequencePool(pool_, reads, params);
    }
};

TEST_F(DecoderTest, DecodeAllRecoversEveryBlock)
{
    DecoderParams params;
    Decoder decoder(*partition_, params);
    DecodeStats stats;
    auto units =
        decoder.decodeAll(sequenceWholePool(20 * 15 * 20), &stats);
    ASSERT_EQ(units.size(), 20u);
    for (uint64_t block = 0; block < 20; ++block) {
        auto it = units.find(block);
        ASSERT_NE(it, units.end()) << "block " << block;
        ASSERT_TRUE(it->second.versions.count(0));
        Bytes content = it->second.versions.at(0);
        content.resize(256);
        EXPECT_EQ(content, blockBytes(block)) << "block " << block;
    }
    EXPECT_EQ(stats.units_decoded, 20u);
    EXPECT_EQ(stats.units_failed, 0u);
}

TEST_F(DecoderTest, DecodeBlockReturnsFinalContents)
{
    DecoderParams params;
    Decoder decoder(*partition_, params);
    auto content =
        decoder.decodeBlock(sequenceWholePool(20 * 15 * 20), 7);
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ(*content, blockBytes(7));
}

TEST_F(DecoderTest, AppliesUpdateChain)
{
    // Add an update patch to block 5 and decode through the chain.
    UpdateRecord record;
    record.kind = UpdateRecord::Kind::kInline;
    record.op.delete_pos = 0;
    record.op.delete_len = 5;
    record.op.insert_pos = 0;
    record.op.insert_bytes = Bytes{'H', 'E', 'L', 'L', 'O'};
    sim::SynthesisParams synthesis;
    synthesis.seed = 99;
    sim::Pool patch = sim::synthesize(
        partition_->encodePatch(5, record, 1), synthesis);
    pool_.mixIn(patch,
                (pool_.totalMass() / pool_.speciesCount()) /
                    (patch.totalMass() / patch.speciesCount()));

    DecoderParams params;
    Decoder decoder(*partition_, params);
    auto content =
        decoder.decodeBlock(sequenceWholePool(21 * 15 * 20), 5);
    ASSERT_TRUE(content.has_value());
    Bytes expected = blockBytes(5);
    for (int i = 0; i < 5; ++i)
        expected[i] = "HELLO"[i];
    EXPECT_EQ(*content, expected);
}

TEST_F(DecoderTest, SurvivesSequencingNoise)
{
    DecoderParams params;
    Decoder decoder(*partition_, params);
    sim::SequencerParams noisy;
    noisy.sub_rate = 0.01;
    noisy.ins_rate = 0.002;
    noisy.del_rate = 0.002;
    noisy.seed = 3;
    auto reads = sim::sequencePool(pool_, 20 * 15 * 25, noisy);
    DecodeStats stats;
    auto units = decoder.decodeAll(reads, &stats);
    EXPECT_EQ(stats.units_decoded, 20u);
}

TEST_F(DecoderTest, MissingBlockReturnsNullopt)
{
    DecoderParams params;
    Decoder decoder(*partition_, params);
    auto content =
        decoder.decodeBlock(sequenceWholePool(20 * 15 * 20), 555);
    EXPECT_FALSE(content.has_value());
}

TEST_F(DecoderTest, ForeignReadsFiltered)
{
    // Reads from another partition (different primer) are dropped at
    // step 1 and don't corrupt decoding.
    PartitionConfig other_config;
    other_config.index_seed = 555;
    Partition other(other_config,
                    dna::Sequence("GGATCCGGATCCGGATCCGG"),
                    dna::Sequence("CAGTCAGTCAGTCAGTCAGT"), 4);
    sim::SynthesisParams synthesis;
    sim::Pool foreign = sim::synthesize(
        other.encodeFile(test::corpusBlocks(5, 5)), synthesis);
    pool_.mixIn(foreign);

    DecoderParams params;
    Decoder decoder(*partition_, params);
    DecodeStats stats;
    auto units =
        decoder.decodeAll(sequenceWholePool(25 * 15 * 20), &stats);
    EXPECT_LT(stats.reads_primer_matched, stats.reads_in);
    EXPECT_EQ(units.size(), 20u);
}

TEST_F(DecoderTest, StatsAreCoherent)
{
    DecoderParams params;
    Decoder decoder(*partition_, params);
    DecodeStats stats;
    auto reads = sequenceWholePool(20 * 15 * 20);
    decoder.decodeAll(reads, &stats);
    EXPECT_EQ(stats.reads_in, 20u * 15u * 20u);
    EXPECT_GT(stats.clusters_total, 0u);
    EXPECT_GE(stats.clusters_used, stats.strands_recovered);
    EXPECT_EQ(stats.units_attempted,
              stats.units_decoded + stats.units_failed);

    // The stats are overwritten, not accumulated: decoding the same
    // reads into a reused DecodeStats reproduces the first result.
    DecodeStats reused = stats;
    decoder.decodeAll(reads, &reused);
    EXPECT_EQ(reused, stats);
}

TEST_F(DecoderTest, SteadyStateDecodePerformsNoArenaGrowth)
{
    // First decode warms every worker arena to its high-water mark;
    // after that, a whole decode pass over the same reads must not
    // allocate a single new arena chunk — the per-read scratch all
    // comes from rewound arena memory. Arenas are thread-local, so
    // the claim holds because the pool's workers outlive both
    // decodes: the process-wide pool behind the default entry point,
    // and an explicit 4-worker pool that forks even on a 1-core host.
    DecoderParams params;
    Decoder decoder(*partition_, params);
    auto reads = sequenceWholePool(20 * 15 * 12);
    auto expectNoGrowth = [&](const char *label, auto decode) {
        decode();
        const ArenaGlobalStats warm = Arena::globalStats();
        auto units = decode();
        const ArenaGlobalStats steady = Arena::globalStats();
        EXPECT_EQ(steady.chunks_allocated, warm.chunks_allocated)
            << label;
        EXPECT_EQ(steady.bytes_reserved, warm.bytes_reserved) << label;
        EXPECT_EQ(units.size(), 20u) << label;
    };
    expectNoGrowth("default pool",
                   [&] { return decoder.decodeAll(reads); });
    ThreadPool four(4);
    expectNoGrowth("ThreadPool(4)", [&] {
        return decoder.decodeAll(reads, nullptr, four);
    });
}

} // namespace
} // namespace dnastore::core
