/**
 * @file
 * Encode-path thread-invariance tests: Partition::encodeFile and
 * BlockDevice::writeFile must produce byte-identical molecule streams
 * (and therefore identical pools) for any pool size, whether the
 * blocks fan out over the process-wide ThreadPool::shared() or a
 * caller-owned pool. This is the encode-side twin of
 * decode_threads_test.cc's contract.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/block_device.h"
#include "sim/synthesis.h"
#include "support/fixtures.h"

namespace dnastore::core {
namespace {

/** Molecule streams equal in order, sequence, and provenance. */
testing::AssertionResult
moleculesEqual(const std::vector<sim::DesignedMolecule> &got,
               const std::vector<sim::DesignedMolecule> &want)
{
    if (got.size() != want.size()) {
        return testing::AssertionFailure()
               << "molecule count " << got.size() << " != "
               << want.size();
    }
    for (size_t i = 0; i < got.size(); ++i) {
        if (!(got[i].seq == want[i].seq) ||
            !(got[i].info == want[i].info)) {
            return testing::AssertionFailure()
                   << "molecule " << i << " differs (block "
                   << got[i].info.block << " vs " << want[i].info.block
                   << ", column " << int(got[i].info.column) << " vs "
                   << int(want[i].info.column) << ")";
        }
    }
    return testing::AssertionSuccess();
}

class EncodeThreadsTest : public ::testing::Test
{
  protected:
    PartitionConfig config_;
    std::unique_ptr<Partition> partition_;
    Bytes data_;

    void
    SetUp() override
    {
        partition_ = std::make_unique<Partition>(
            config_, test::fwdPrimer(), test::revPrimer(), 13);
        data_ = test::corpusBlocks(20, 77);
    }
};

TEST_F(EncodeThreadsTest, EncodeFileByteIdenticalAcrossThreadCounts)
{
    ThreadPool sequential(1);
    std::vector<sim::DesignedMolecule> baseline =
        partition_->encodeFile(data_, sequential);
    ASSERT_EQ(baseline.size(), 20u * config_.rs_n);

    for (size_t threads : {2u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_TRUE(moleculesEqual(
            partition_->encodeFile(data_, pool), baseline))
            << "threads=" << threads;
    }
    EXPECT_TRUE(moleculesEqual(partition_->encodeFile(data_), baseline))
        << "shared pool";
}

TEST_F(EncodeThreadsTest, EncodeFileOverSharedPoolMatches)
{
    ThreadPool sequential(1);
    std::vector<sim::DesignedMolecule> baseline =
        partition_->encodeFile(data_, sequential);

    // A caller-owned pool (the DecodeService/bench sharing pattern),
    // reused across several encodes.
    ThreadPool pool(3);
    for (int round = 0; round < 3; ++round) {
        EXPECT_TRUE(moleculesEqual(
            partition_->encodeFile(data_, pool), baseline))
            << "round " << round;
    }
}

TEST_F(EncodeThreadsTest, TailBlockPaddingIsThreadInvariant)
{
    // A non-multiple-of-block-size file exercises the zero-padded
    // tail block in the parallel path.
    Bytes ragged(data_.begin(),
                 data_.begin() + 7 * config_.block_data_bytes + 100);
    ThreadPool sequential(1);
    ThreadPool parallel(8);
    EXPECT_TRUE(
        moleculesEqual(partition_->encodeFile(ragged, parallel),
                       partition_->encodeFile(ragged, sequential)));
}

TEST_F(EncodeThreadsTest, WriteFilePoolMatchesSequentialEncode)
{
    // writeFile encodes on the shared pool; its pool must equal the
    // one synthesized from a sequential encode of the same file.
    BlockDeviceParams params;
    auto device = test::makeLoadedDevice(params, data_);
    ThreadPool sequential(1);
    sim::Pool expected = sim::synthesize(
        device->partition().encodeFile(data_, sequential),
        params.synthesis);

    const auto &expected_species = expected.species();
    const auto &device_species = device->pool().species();
    ASSERT_EQ(device_species.size(), expected_species.size());
    for (size_t i = 0; i < expected_species.size(); ++i) {
        EXPECT_EQ(device_species[i].seq, expected_species[i].seq)
            << "species " << i;
        EXPECT_EQ(device_species[i].info, expected_species[i].info)
            << "species " << i;
        // Masses come from one sequential RNG stream over an
        // identical molecule order, so they match bit for bit.
        EXPECT_EQ(device_species[i].mass, expected_species[i].mass)
            << "species " << i;
    }
}

TEST_F(EncodeThreadsTest, ParallelEncodedDeviceRoundTrips)
{
    BlockDeviceParams params;
    auto device = test::makeLoadedDevice(params, data_);
    EXPECT_TRUE(
        test::blockMatches(device->readBlock(3), data_, 3));
}

} // namespace
} // namespace dnastore::core
