/**
 * @file
 * Unit and property tests for RS(15,11) errors-and-erasures decoding.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "ecc/reed_solomon.h"

namespace dnastore::ecc {
namespace {

std::vector<uint8_t>
randomData(dnastore::Rng &rng, unsigned k)
{
    std::vector<uint8_t> data(k);
    for (uint8_t &symbol : data)
        symbol = static_cast<uint8_t>(rng.nextBelow(16));
    return data;
}

TEST(ReedSolomonTest, EncodeIsSystematic)
{
    ReedSolomon rs(15, 11);
    dnastore::Rng rng(1);
    std::vector<uint8_t> data = randomData(rng, 11);
    std::vector<uint8_t> codeword = rs.encode(data);
    ASSERT_EQ(codeword.size(), 15u);
    EXPECT_TRUE(std::equal(data.begin(), data.end(), codeword.begin()));
}

TEST(ReedSolomonTest, CleanWordDecodes)
{
    ReedSolomon rs(15, 11);
    dnastore::Rng rng(2);
    std::vector<uint8_t> data = randomData(rng, 11);
    std::vector<uint8_t> codeword = rs.encode(data);
    RsDecodeResult result = rs.decode(codeword);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result.codeword, codeword);
    EXPECT_EQ(result.errors_corrected, 0u);
}

TEST(ReedSolomonTest, CorrectsSingleError)
{
    ReedSolomon rs(15, 11);
    dnastore::Rng rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> data = randomData(rng, 11);
        std::vector<uint8_t> codeword = rs.encode(data);
        std::vector<uint8_t> corrupted = codeword;
        size_t pos = rng.nextBelow(15);
        corrupted[pos] ^= static_cast<uint8_t>(1 + rng.nextBelow(15));
        RsDecodeResult result = rs.decode(corrupted);
        ASSERT_TRUE(result.ok()) << "trial " << trial;
        EXPECT_EQ(*result.codeword, codeword);
        EXPECT_EQ(result.errors_corrected, 1u);
    }
}

TEST(ReedSolomonTest, CorrectsTwoErrors)
{
    ReedSolomon rs(15, 11);
    dnastore::Rng rng(4);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> data = randomData(rng, 11);
        std::vector<uint8_t> codeword = rs.encode(data);
        std::vector<uint8_t> corrupted = codeword;
        size_t p1 = rng.nextBelow(15);
        size_t p2 = (p1 + 1 + rng.nextBelow(14)) % 15;
        corrupted[p1] ^= static_cast<uint8_t>(1 + rng.nextBelow(15));
        corrupted[p2] ^= static_cast<uint8_t>(1 + rng.nextBelow(15));
        RsDecodeResult result = rs.decode(corrupted);
        ASSERT_TRUE(result.ok()) << "trial " << trial;
        EXPECT_EQ(*result.codeword, codeword);
    }
}

TEST(ReedSolomonTest, ThreeErrorsRejectedOrMiscorrected)
{
    // Beyond half the minimum distance: decoding must not return the
    // original pretending success is guaranteed; it either fails or
    // returns some codeword. It must never crash.
    ReedSolomon rs(15, 11);
    dnastore::Rng rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> data = randomData(rng, 11);
        std::vector<uint8_t> corrupted = rs.encode(data);
        for (size_t e = 0; e < 3; ++e) {
            corrupted[(trial + 5 * e) % 15] ^=
                static_cast<uint8_t>(1 + rng.nextBelow(15));
        }
        EXPECT_NO_THROW(rs.decode(corrupted));
    }
}

TEST(ReedSolomonTest, CorrectsFourErasures)
{
    ReedSolomon rs(15, 11);
    dnastore::Rng rng(6);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> data = randomData(rng, 11);
        std::vector<uint8_t> codeword = rs.encode(data);
        std::vector<uint8_t> corrupted = codeword;
        std::vector<size_t> positions = {0, 1, 2, 3, 4, 5, 6, 7,
                                         8, 9, 10, 11, 12, 13, 14};
        rng.shuffle(positions);
        std::vector<size_t> erasures(positions.begin(),
                                     positions.begin() + 4);
        for (size_t pos : erasures)
            corrupted[pos] = static_cast<uint8_t>(rng.nextBelow(16));
        RsDecodeResult result = rs.decode(corrupted, erasures);
        ASSERT_TRUE(result.ok()) << "trial " << trial;
        EXPECT_EQ(*result.codeword, codeword);
        EXPECT_EQ(result.erasures_filled, 4u);
    }
}

TEST(ReedSolomonTest, CorrectsOneErrorPlusTwoErasures)
{
    // 2*errors + erasures = 4 == n - k.
    ReedSolomon rs(15, 11);
    dnastore::Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<uint8_t> data = randomData(rng, 11);
        std::vector<uint8_t> codeword = rs.encode(data);
        std::vector<uint8_t> corrupted = codeword;
        std::vector<size_t> positions = {0, 1, 2, 3, 4, 5, 6, 7,
                                         8, 9, 10, 11, 12, 13, 14};
        rng.shuffle(positions);
        std::vector<size_t> erasures = {positions[0], positions[1]};
        corrupted[positions[0]] =
            static_cast<uint8_t>(rng.nextBelow(16));
        corrupted[positions[1]] =
            static_cast<uint8_t>(rng.nextBelow(16));
        corrupted[positions[2]] ^=
            static_cast<uint8_t>(1 + rng.nextBelow(15));
        RsDecodeResult result = rs.decode(corrupted, erasures);
        ASSERT_TRUE(result.ok()) << "trial " << trial;
        EXPECT_EQ(*result.codeword, codeword);
    }
}

TEST(ReedSolomonTest, TooManyErasuresFails)
{
    ReedSolomon rs(15, 11);
    dnastore::Rng rng(8);
    std::vector<uint8_t> codeword = rs.encode(randomData(rng, 11));
    std::vector<size_t> erasures = {0, 1, 2, 3, 4};
    RsDecodeResult result = rs.decode(codeword, erasures);
    EXPECT_FALSE(result.ok());
}

TEST(ReedSolomonTest, OtherGeometries)
{
    // RS(7, 3): corrects 2 errors.
    ReedSolomon rs(7, 3);
    dnastore::Rng rng(9);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<uint8_t> data = randomData(rng, 3);
        std::vector<uint8_t> codeword = rs.encode(data);
        std::vector<uint8_t> corrupted = codeword;
        corrupted[trial % 7] ^=
            static_cast<uint8_t>(1 + rng.nextBelow(15));
        corrupted[(trial + 3) % 7] ^=
            static_cast<uint8_t>(1 + rng.nextBelow(15));
        RsDecodeResult result = rs.decode(corrupted);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(*result.codeword, codeword);
    }
}

TEST(ReedSolomonTest, RejectsBadParameters)
{
    EXPECT_THROW(ReedSolomon(16, 11), dnastore::FatalError);
    EXPECT_THROW(ReedSolomon(15, 15), dnastore::FatalError);
    ReedSolomon rs(15, 11);
    EXPECT_THROW(rs.encode(std::vector<uint8_t>(10)),
                 dnastore::FatalError);
    EXPECT_THROW(rs.decode(std::vector<uint8_t>(14)),
                 dnastore::FatalError);
}

TEST(ReedSolomonTest, DecodeRejectsOutOfRangeSymbols)
{
    ReedSolomon rs(15, 11);
    dnastore::Rng rng(10);
    const std::vector<uint8_t> codeword = rs.encode(randomData(rng, 11));
    for (uint8_t bad : {uint8_t{0x10}, uint8_t{0xFF}}) {
        std::vector<uint8_t> received = codeword;
        received[6] = bad;
        EXPECT_THROW(rs.decode(received), dnastore::FatalError);
        EXPECT_THROW(rs.decode(received, {2}), dnastore::FatalError);
    }
    // An erased position may hold any value.
    std::vector<uint8_t> received = codeword;
    received[6] = 0xFF;
    RsDecodeResult result = rs.decode(received, {6});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result.codeword, codeword);
}

/** Property sweep: every (errors, erasures) combo within capability. */
class RsCapabilityTest
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(RsCapabilityTest, CorrectsWithinCapability)
{
    auto [errors, erasures] = GetParam();
    ASSERT_LE(2 * errors + erasures, 4);
    ReedSolomon rs(15, 11);
    dnastore::Rng rng(100 + errors * 10 + erasures);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<uint8_t> codeword = rs.encode(randomData(rng, 11));
        std::vector<uint8_t> corrupted = codeword;
        std::vector<size_t> positions = {0, 1, 2, 3, 4, 5, 6, 7,
                                         8, 9, 10, 11, 12, 13, 14};
        rng.shuffle(positions);
        std::vector<size_t> erased(
            positions.begin(), positions.begin() + erasures);
        for (size_t pos : erased)
            corrupted[pos] = static_cast<uint8_t>(rng.nextBelow(16));
        for (int e = 0; e < errors; ++e) {
            size_t pos = positions[erasures + e];
            corrupted[pos] ^=
                static_cast<uint8_t>(1 + rng.nextBelow(15));
        }
        RsDecodeResult result = rs.decode(corrupted, erased);
        ASSERT_TRUE(result.ok())
            << "errors=" << errors << " erasures=" << erasures
            << " trial=" << trial;
        EXPECT_EQ(*result.codeword, codeword);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, RsCapabilityTest,
    ::testing::Values(std::pair{0, 0}, std::pair{0, 1}, std::pair{0, 2},
                      std::pair{0, 3}, std::pair{0, 4}, std::pair{1, 0},
                      std::pair{1, 1}, std::pair{1, 2}, std::pair{2, 0}));

} // namespace
} // namespace dnastore::ecc
