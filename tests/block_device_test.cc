/**
 * @file
 * Integration tests for the BlockDevice facade: write, precise block
 * reads, range reads, updates (inline and overflow), and costs.
 * Inputs come from the shared tests/support fixtures.
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>
#include <utility>

#include "core/block_device.h"
#include "support/fixtures.h"

namespace dnastore::core {
namespace {

BlockDeviceParams
smallParams()
{
    BlockDeviceParams params;
    params.reads_per_block_access = 900;
    params.coverage = 20.0;
    return params;
}

class BlockDeviceTest : public ::testing::Test
{
  protected:
    Bytes data_ = test::corpusBlocks(24, 123);
    BlockDevice device_{smallParams(), test::fwdPrimer(),
                        test::revPrimer(), 13};

    void SetUp() override { device_.writeFile(data_); }

    Bytes
    blockBytes(uint64_t block) const
    {
        return test::blockSlice(data_, block);
    }
};

TEST_F(BlockDeviceTest, WriteFilePopulatesPool)
{
    EXPECT_EQ(device_.blockCount(), 24u);
    EXPECT_EQ(device_.pool().speciesCount(), 24u * 15u);
    EXPECT_EQ(device_.costs().moleculesSynthesized(), 24u * 15u);
}

TEST_F(BlockDeviceTest, ReadBlockRoundTrip)
{
    for (uint64_t block : {0u, 11u, 23u}) {
        EXPECT_TRUE(
            test::blockMatches(device_.readBlock(block), data_, block));
    }
}

TEST_F(BlockDeviceTest, ReadBlockIsSelective)
{
    device_.readBlock(11);
    const DecodeStats &stats = device_.lastStats();
    // The reads should be overwhelmingly from the target block: the
    // decoder recovers its 15 strands from few clusters.
    EXPECT_GE(stats.units_decoded, 1u);
    EXPECT_LE(stats.units_decoded, 6u);  // target + few neighbours
}

TEST_F(BlockDeviceTest, InlineUpdateApplied)
{
    UpdateOp op;
    op.delete_pos = 0;
    op.delete_len = 3;
    op.insert_pos = 0;
    op.insert_bytes = {'X', 'Y', 'Z'};
    device_.updateBlock(7, op);
    EXPECT_EQ(device_.updateCount(7), 1u);

    auto content = device_.readBlock(7);
    ASSERT_TRUE(content.has_value());
    Bytes expected = blockBytes(7);
    expected[0] = 'X';
    expected[1] = 'Y';
    expected[2] = 'Z';
    EXPECT_EQ(*content, expected);
}

TEST_F(BlockDeviceTest, TwoInlineUpdatesChain)
{
    UpdateOp first;
    first.insert_pos = 0;
    first.insert_bytes = {'A'};
    UpdateOp second;
    second.insert_pos = 0;
    second.insert_bytes = {'B'};
    device_.updateBlock(3, first);
    device_.updateBlock(3, second);

    auto content = device_.readBlock(3);
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ((*content)[0], 'B');
    EXPECT_EQ((*content)[1], 'A');
    Bytes original = blockBytes(3);
    EXPECT_TRUE(std::equal(content->begin() + 2, content->end() - 2,
                           original.begin()));
}

TEST_F(BlockDeviceTest, ReplaceBlock)
{
    Bytes fresh(256, '#');
    device_.replaceBlock(9, fresh);
    auto content = device_.readBlock(9);
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ(*content, fresh);
}

TEST_F(BlockDeviceTest, OverflowChainBeyondInlineSlots)
{
    // Five updates: 2 inline + pointer -> overflow container(s).
    for (int i = 0; i < 5; ++i) {
        UpdateOp op;
        op.insert_pos = 0;
        op.insert_bytes = {static_cast<uint8_t>('a' + i)};
        device_.updateBlock(5, op);
    }
    EXPECT_EQ(device_.updateCount(5), 5u);

    size_t trips_before = device_.costs().roundTrips();
    auto content = device_.readBlock(5);
    ASSERT_TRUE(content.has_value());
    // Updates prepend in order: last one is at the front.
    EXPECT_EQ((*content)[0], 'e');
    EXPECT_EQ((*content)[1], 'd');
    EXPECT_EQ((*content)[2], 'c');
    EXPECT_EQ((*content)[3], 'b');
    EXPECT_EQ((*content)[4], 'a');
    // Overflow costs extra round trips (Figure 8's trade-off).
    EXPECT_GT(device_.costs().roundTrips(), trips_before + 1);
}

TEST_F(BlockDeviceTest, AssembleRangeFollowsTwoOverflowHops)
{
    // 2 inline slots, then 3 records per container: the sixth update
    // opens a second container, so block 5's chain takes two hops.
    for (int i = 0; i < 7; ++i) {
        UpdateOp op;
        op.insert_pos = 0;
        op.insert_bytes = {static_cast<uint8_t>('a' + i)};
        device_.updateBlock(5, op);
    }
    const std::optional<Bytes> block = device_.readBlock(5);
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(std::string(block->begin(), block->begin() + 7), "gfedcba");
    EXPECT_TRUE(std::equal(block->begin() + 7, block->end(),
                           blockBytes(5).begin()));

    // A range read's own decode holds no container, so assembleRange
    // fetches each hop with one more round trip.
    size_t trips_before = device_.costs().roundTrips();
    std::vector<std::optional<Bytes>> range = device_.readRange(4, 7);
    EXPECT_EQ(device_.costs().roundTrips(), trips_before + 3);
    ASSERT_EQ(range.size(), 4u);
    EXPECT_EQ(range[1], block);
    for (uint64_t b : {4u, 6u, 7u})
        EXPECT_TRUE(test::blockMatches(range[b - 4], data_, b));

    // A whole-device read decodes both containers with the blocks, so
    // the chain resolves from the decoded units alone.
    trips_before = device_.costs().roundTrips();
    std::vector<std::optional<Bytes>> all = device_.readAll();
    EXPECT_EQ(device_.costs().roundTrips(), trips_before + 1);
    ASSERT_EQ(all.size(), 24u);
    EXPECT_EQ(all[5], block);
    for (uint64_t b = 0; b < 24; ++b) {
        if (b != 5) {
            EXPECT_TRUE(test::blockMatches(all[b], data_, b));
        }
    }
}

TEST_F(BlockDeviceTest, ReadRange)
{
    auto contents = device_.readRange(4, 9);
    ASSERT_EQ(contents.size(), 6u);
    for (uint64_t i = 0; i < 6; ++i) {
        EXPECT_TRUE(test::blockMatches(contents[i], data_, 4 + i))
            << "offset " << i;
    }
}

TEST_F(BlockDeviceTest, ReadAllReturnsWholeFile)
{
    test::RoundTrip result = test::roundTrip(device_, data_);
    EXPECT_EQ(result.blocks, 24u);
    EXPECT_EQ(result.decoded, 24u);
    EXPECT_EQ(result.exact, 24u) << result.first_mismatch;
}

TEST_F(BlockDeviceTest, CostsAccumulate)
{
    size_t reads_before = device_.costs().readsSequenced();
    device_.readBlock(2);
    EXPECT_EQ(device_.costs().readsSequenced(),
              reads_before + smallParams().reads_per_block_access);
    EXPECT_GT(device_.costs().sequencingCost(), 0.0);
    EXPECT_GT(device_.costs().synthesisCost(), 0.0);
}

TEST_F(BlockDeviceTest, UpdateSynthesisIsTiny)
{
    // Section 7.5: an update costs 15 molecules, not a partition.
    size_t before = device_.costs().moleculesSynthesized();
    UpdateOp op;
    op.insert_bytes = {'!'};
    device_.updateBlock(1, op);
    EXPECT_EQ(device_.costs().moleculesSynthesized(), before + 15);
}

UpdateRecord
overflowPointer(uint64_t container)
{
    UpdateRecord pointer;
    pointer.kind = UpdateRecord::Kind::kOverflowPointer;
    pointer.overflow_block = container;
    return pointer;
}

TEST_F(BlockDeviceTest, OverflowPointerOutsideTheLogIsABadRecord)
{
    // A garbage unit that parses as a pointer past the address space
    // ends the chain; it must not reach blockPrimer() (which throws
    // on an address with too many base-4 digits).
    const size_t unit_bytes = smallParams().config.unitDataBytes();
    std::map<uint64_t, BlockVersions> units;
    units[3].versions[0] = blockBytes(3);
    units[3].versions[0].resize(unit_bytes);
    units[3].versions[1] = overflowPointer(5000).serialize(unit_bytes);

    std::vector<std::optional<Bytes>> blocks;
    ASSERT_NO_THROW(blocks = device_.assembleRange(3, 3, units));
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0], std::optional<Bytes>(blockBytes(3)));
}

TEST_F(BlockDeviceTest, OverflowPointerCycleEndsTheChain)
{
    // A container whose record points back at itself: every real hop
    // goes strictly down the overflow log, so this one is refused.
    const size_t unit_bytes = smallParams().config.unitDataBytes();
    const uint64_t container = device_.partition().tree().leafCount() - 1;
    std::map<uint64_t, BlockVersions> units;
    units[3].versions[0] = blockBytes(3);
    units[3].versions[0].resize(unit_bytes);
    units[3].versions[1] =
        overflowPointer(container).serialize(unit_bytes);
    units[container].versions[0] =
        overflowPointer(container).serialize(unit_bytes);

    std::vector<std::optional<Bytes>> blocks =
        device_.assembleRange(3, 3, units);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0], std::optional<Bytes>(blockBytes(3)));
}

TEST_F(BlockDeviceTest, ReplaceInsideOverflowContainerApplies)
{
    // A container's slot 0 holds a record too, not a base: here a
    // whole-block replacement, then an inline insert in slot 1.
    const size_t unit_bytes = smallParams().config.unitDataBytes();
    const uint64_t container = device_.partition().tree().leafCount() - 1;
    UpdateRecord replace;
    replace.kind = UpdateRecord::Kind::kReplace;
    replace.replacement = Bytes(256, '#');
    UpdateRecord insert;
    insert.kind = UpdateRecord::Kind::kInline;
    insert.op.insert_pos = 0;
    insert.op.insert_bytes = {'Z'};

    std::map<uint64_t, BlockVersions> units;
    units[3].versions[0] = blockBytes(3);
    units[3].versions[0].resize(unit_bytes);
    units[3].versions[1] =
        overflowPointer(container).serialize(unit_bytes);
    units[container].versions[0] = replace.serialize(unit_bytes);
    units[container].versions[1] = insert.serialize(unit_bytes);

    Bytes expected(256, '#');
    expected[0] = 'Z';
    std::vector<std::optional<Bytes>> blocks =
        device_.assembleRange(3, 3, units);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0], std::optional<Bytes>(expected));
}

TEST_F(BlockDeviceTest, InvalidArgumentsThrow)
{
    EXPECT_THROW(device_.readBlock(24), dnastore::FatalError);
    EXPECT_THROW(device_.readRange(5, 4), dnastore::FatalError);
    EXPECT_THROW(device_.readRange(0, 24), dnastore::FatalError);
    UpdateOp op;
    EXPECT_THROW(device_.updateBlock(99, op), dnastore::FatalError);
}

// ---------------------------------------------------------------------------
// Golden pins for the simulated wetlab half of a read: the exact PCR
// product and reads of a 256-block device pool. Any change to a
// species, its provenance, a mass bit or a read breaks them, so a
// change meant to keep the simulator's output must pass them as they
// are.

/** FNV-1a over little-endian fields. */
class Digest
{
  public:
    void
    u64(uint64_t value)
    {
        for (unsigned i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(value >> (8 * i)));
    }

    void f64(double value) { u64(std::bit_cast<uint64_t>(value)); }

    void
    str(const std::string &text)
    {
        u64(text.size());
        for (char c : text)
            byte(static_cast<uint8_t>(c));
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ULL;

    void
    byte(uint8_t b)
    {
        hash_ ^= b;
        hash_ *= 0x100000001b3ULL;
    }
};

uint64_t
poolDigest(const sim::Pool &pool)
{
    Digest digest;
    for (const sim::Species &s : pool.species()) {
        digest.str(s.seq.str());
        digest.u64(s.info.file_id);
        digest.u64(s.info.block);
        digest.u64(s.info.version);
        digest.u64(s.info.column);
        digest.u64(s.info.misprimed ? 1 : 0);
        digest.f64(s.mass);
    }
    return digest.value();
}

uint64_t
readsDigest(const std::vector<sim::Read> &reads)
{
    Digest digest;
    for (const sim::Read &read : reads) {
        digest.str(read.seq.str());
        digest.u64(read.species_index);
    }
    return digest.value();
}

/** The reaction BlockDevice runs for a block access. */
sim::PcrParams
accessPcr(double penalty)
{
    const BlockDeviceParams defaults;
    sim::PcrParams pcr = defaults.pcr;
    pcr.mismatch_penalty = penalty;
    pcr.cycles = defaults.block_access_cycles;
    pcr.stringency = sim::touchdownSchedule(defaults.touchdown_cycles,
                                            defaults.block_access_cycles);
    return pcr;
}

enum class PrimerSet { kBlock, kBlockWithLeftover, kRange16 };

constexpr uint64_t kGoldenBlock = 37;
constexpr uint64_t kGoldenRangeLo = 96;

std::vector<sim::PcrPrimer>
primerSet(const Partition &partition, PrimerSet set)
{
    std::vector<sim::PcrPrimer> primers;
    switch (set) {
      case PrimerSet::kBlock:
        primers.push_back({partition.blockPrimer(kGoldenBlock), 1.0});
        break;
      case PrimerSet::kBlockWithLeftover:
        primers.push_back({partition.blockPrimer(kGoldenBlock), 1.0});
        primers.push_back({partition.forwardPrimer(), 0.18});
        break;
      case PrimerSet::kRange16: {
        std::vector<dna::Sequence> cover = partition.rangePrimers(
            kGoldenRangeLo, kGoldenRangeLo + 15);
        double share = 1.0 / static_cast<double>(cover.size());
        for (dna::Sequence &seq : cover)
            primers.push_back({std::move(seq), share});
        break;
      }
    }
    return primers;
}

class WetlabGoldenTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        device_ = test::makeLoadedDevice(BlockDeviceParams{},
                                         test::corpusBlocks(256));
    }

    static void TearDownTestSuite() { device_.reset(); }

    static inline std::unique_ptr<BlockDevice> device_;
};

struct PcrGolden
{
    double penalty;
    PrimerSet set;
    uint64_t digest;
    size_t species_out;
    size_t misprimed_species;
    uint64_t gain_bits;
};

TEST_F(WetlabGoldenTest, PcrProductIsPinned)
{
    ASSERT_EQ(device_->pool().speciesCount(), 256u * 15u);
    const PcrGolden goldens[] = {
        {0.15, PrimerSet::kBlock, 1889216070031425209ULL, 4076, 236,
         4693291491880170805ULL},
        {0.15, PrimerSet::kBlockWithLeftover, 234700524576219831ULL,
         4076, 236, 4693590554724897512ULL},
        {0.15, PrimerSet::kRange16, 17712281864542470933ULL, 4380, 540,
         4710624667026637254ULL},
        {1.0, PrimerSet::kBlock, 3481372622234988518ULL, 3855, 15,
         4692055525801389653ULL},
        {1.0, PrimerSet::kBlockWithLeftover, 5884780733365928194ULL,
         3855, 15, 4692059515307731045ULL},
        {1.0, PrimerSet::kRange16, 14587905514675893363ULL, 3840, 0,
         4710624596361442942ULL},
    };
    for (const PcrGolden &golden : goldens) {
        SCOPED_TRACE(testing::Message()
                     << "penalty " << golden.penalty << " set "
                     << static_cast<int>(golden.set));
        sim::PcrStats stats;
        sim::Pool product = sim::runPcr(
            device_->pool(),
            primerSet(device_->partition(), golden.set),
            device_->partition().reversePrimer(),
            accessPcr(golden.penalty), &stats);
        EXPECT_EQ(poolDigest(product), golden.digest);
        EXPECT_EQ(stats.species_out, golden.species_out);
        EXPECT_EQ(stats.misprimed_species, golden.misprimed_species);
        EXPECT_EQ(std::bit_cast<uint64_t>(stats.gain), golden.gain_bits);
    }
}

TEST_F(WetlabGoldenTest, ReadsArePinned)
{
    const std::pair<double, uint64_t> goldens[] = {
        {0.15, 8630647969793855072ULL}, {1.0, 8615373344001072363ULL}};
    for (const auto &[penalty, digest] : goldens) {
        SCOPED_TRACE(testing::Message() << "penalty " << penalty);
        sim::Pool product = sim::runPcr(
            device_->pool(),
            primerSet(device_->partition(), PrimerSet::kBlock),
            device_->partition().reversePrimer(), accessPcr(penalty));
        sim::SequencerParams sequencer;
        sequencer.seed = 0x5EED;
        EXPECT_EQ(readsDigest(sim::sequencePool(product, 1200, sequencer)),
                  digest);
    }
}

void
expectSameProduct(const sim::Pool &got, const sim::PcrStats &got_stats,
                  const sim::Pool &want, const sim::PcrStats &want_stats)
{
    ASSERT_EQ(got.speciesCount(), want.speciesCount());
    for (size_t i = 0; i < want.speciesCount(); ++i) {
        const sim::Species &a = got.species()[i];
        const sim::Species &b = want.species()[i];
        ASSERT_EQ(a.seq, b.seq) << "species " << i;
        ASSERT_EQ(a.info, b.info) << "species " << i;
        ASSERT_EQ(a.mass, b.mass) << "species " << i;
    }
    EXPECT_EQ(got_stats.species_out, want_stats.species_out);
    EXPECT_EQ(got_stats.misprimed_species, want_stats.misprimed_species);
    EXPECT_EQ(got_stats.gain, want_stats.gain);
}

TEST(WetlabMemoTest, PersistedMemoMatchesAFreshCallAsThePoolGrows)
{
    // Replacement patches of the target and its neighbours only ever
    // append species, so one memo serves every reaction below.
    auto device = test::makeLoadedDevice(BlockDeviceParams{},
                                         test::corpusBlocks(64));
    const std::vector<sim::PcrPrimer> primers =
        primerSet(device->partition(), PrimerSet::kBlockWithLeftover);
    const sim::PcrParams pcr = accessPcr(0.15);
    sim::ReverseSiteMemo memo;
    for (unsigned patch = 0; patch <= 12; ++patch) {
        SCOPED_TRACE(testing::Message() << "patches " << patch);
        if (patch > 0) {
            device->replaceBlock(kGoldenBlock - patch % 3,
                                 Bytes(200, static_cast<uint8_t>(patch)));
        }
        const sim::Pool &pool = device->pool();
        sim::PcrStats with_stats;
        sim::Pool with = sim::runPcr(pool, primers,
                                     device->partition().reversePrimer(),
                                     pcr, &with_stats, &memo);
        EXPECT_EQ(memo.sites.size(), pool.speciesCount());
        sim::PcrStats without_stats;
        sim::Pool without = sim::runPcr(
            pool, primers, device->partition().reversePrimer(), pcr,
            &without_stats);
        expectSameProduct(with, with_stats, without, without_stats);
    }
    EXPECT_GT(device->updateCount(kGoldenBlock), 2u);  // overflow hops
}

} // namespace
} // namespace dnastore::core
