/**
 * @file
 * Thread-invariance golden tests: the decode pipeline must produce
 * byte-identical output — decoded units AND DecodeStats counters —
 * for any pool it runs on. This is the contract that lets the
 * pipeline scale across cores without perturbing a single result,
 * and it guards every parallel stage (primer filter, MinHash
 * signatures, per-cluster BMA, per-unit RS decode). The sweeps use
 * explicit pools, so they fork on a 1-core host too.
 */

#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/decoder.h"
#include "sim/pcr.h"
#include "sim/synthesis.h"
#include "support/fixtures.h"

namespace dnastore::core {
namespace {

const dna::Sequence &kFwd = test::fwdPrimer();
const dna::Sequence &kRev = test::revPrimer();

/** Seeded corpus fixture: 20-block file, synthesized pool. */
class DecodeThreadsTest : public ::testing::Test
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
        // An explicit pool leaves ThreadPool::shared() unbuilt, so
        // ConcurrentCallersShareTheProcessPool races its first use.
        ThreadPool sequential(1);
        pool_ = sim::synthesize(
            partition_->encodeFile(data_, sequential), synthesis);
    }

    std::vector<sim::Read>
    noisyReads(size_t count) const
    {
        sim::SequencerParams params;
        params.sub_rate = 0.01;
        params.ins_rate = 0.002;
        params.del_rate = 0.002;
        params.seed = 3;
        return sim::sequencePool(pool_, count, params);
    }
};

TEST_F(DecodeThreadsTest, DecodeAllIsByteIdenticalAcrossThreadCounts)
{
    std::vector<sim::Read> reads = noisyReads(20 * 15 * 25);
    Decoder decoder(*partition_, DecoderParams{});

    ThreadPool sequential(1);
    DecodeStats baseline_stats;
    std::map<uint64_t, BlockVersions> baseline_units =
        decoder.decodeAll(reads, &baseline_stats, sequential);
    ASSERT_EQ(baseline_stats.units_decoded, 20u);

    for (size_t threads : {2u, 8u}) {
        ThreadPool pool(threads);
        DecodeStats stats;
        std::map<uint64_t, BlockVersions> units =
            decoder.decodeAll(reads, &stats, pool);
        EXPECT_EQ(units, baseline_units) << "threads=" << threads;
        EXPECT_EQ(stats, baseline_stats) << "threads=" << threads;
    }
}

TEST_F(DecodeThreadsTest, UpdateChainDecodeIsThreadInvariant)
{
    // A version chain exercises the multi-unit path: block 5 carries
    // version 0 plus an inline patch in version 1.
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

    std::vector<sim::Read> reads = noisyReads(21 * 15 * 25);
    Decoder decoder(*partition_, DecoderParams{});

    std::optional<Bytes> baseline;
    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        std::optional<Bytes> content =
            decoder.decodeBlock(reads, 5, nullptr, nullptr, pool);
        ASSERT_TRUE(content.has_value()) << "threads=" << threads;
        if (!baseline) {
            baseline = content;
            EXPECT_EQ((*content)[0], 'H');
        } else {
            EXPECT_EQ(*content, *baseline) << "threads=" << threads;
        }
    }
}

TEST_F(DecodeThreadsTest, SharedPoolDecodesLikeSizeOnePool)
{
    // The default pool, ThreadPool::shared(), has one worker per
    // hardware thread and must decode exactly like the sequential
    // baseline.
    std::vector<sim::Read> reads = noisyReads(20 * 15 * 25);
    Decoder decoder(*partition_, DecoderParams{});

    ThreadPool sequential(1);
    DecodeStats sequential_stats;
    DecodeStats default_stats;
    auto sequential_units =
        decoder.decodeAll(reads, &sequential_stats, sequential);
    auto default_units = decoder.decodeAll(reads, &default_stats);
    EXPECT_EQ(default_units, sequential_units);
    EXPECT_EQ(default_stats, sequential_stats);
}

TEST_F(DecodeThreadsTest, ConcurrentCallersShareTheProcessPool)
{
    // Independent callers race the first use of ThreadPool::shared()
    // and then contend for its workers, each decoding and encoding
    // through the default entry points. Every caller must still get
    // exactly the sequential result.
    std::vector<sim::Read> reads = noisyReads(20 * 15 * 25);
    Decoder decoder(*partition_, DecoderParams{});

    ThreadPool sequential(1);
    DecodeStats golden_stats;
    const std::map<uint64_t, BlockVersions> golden_units =
        decoder.decodeAll(reads, &golden_stats, sequential);
    const std::vector<sim::DesignedMolecule> golden_molecules =
        partition_->encodeFile(data_, sequential);

    constexpr size_t kCallers = 4;
    std::vector<std::map<uint64_t, BlockVersions>> units(kCallers);
    std::vector<DecodeStats> stats(kCallers);
    std::vector<std::vector<sim::DesignedMolecule>> molecules(kCallers);
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            units[c] = decoder.decodeAll(reads, &stats[c]);
            molecules[c] = partition_->encodeFile(data_);
        });
    }
    for (std::thread &caller : callers)
        caller.join();

    for (size_t c = 0; c < kCallers; ++c) {
        EXPECT_EQ(units[c], golden_units) << "caller " << c;
        EXPECT_EQ(stats[c], golden_stats) << "caller " << c;
        ASSERT_EQ(molecules[c].size(), golden_molecules.size());
        for (size_t i = 0; i < golden_molecules.size(); ++i) {
            EXPECT_EQ(molecules[c][i].seq, golden_molecules[i].seq)
                << "caller " << c << " molecule " << i;
            EXPECT_EQ(molecules[c][i].info, golden_molecules[i].info)
                << "caller " << c << " molecule " << i;
        }
    }
}

} // namespace
} // namespace dnastore::core
