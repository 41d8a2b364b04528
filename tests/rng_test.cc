/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace dnastore {
namespace {

TEST(RngTest, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextBelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(13), 13u);
}

TEST(RngTest, NextBelowZeroBoundPanics)
{
    Rng rng(7);
    EXPECT_THROW(rng.nextBelow(0), PanicError);
}

TEST(RngTest, NextBelowCoversAllResidues)
{
    Rng rng(3);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBelow(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextInRangeInclusive)
{
    Rng rng(11);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        int64_t v = rng.nextInRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(17);
    const int n = 20000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        double v = rng.nextGaussian();
        sum += v;
        sum_sq += v * v;
    }
    double mean = sum / n;
    double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, LogNormalIsPositive)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GT(rng.nextLogNormal(0.0, 0.5), 0.0);
}

TEST(RngTest, BernoulliProbability)
{
    Rng rng(23);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

/** nextDouble()'s value for a draw whose top 53 bits are @p k. */
double
unitDouble(uint64_t k)
{
    return static_cast<double>(k) * 0x1.0p-53;
}

TEST(RngTest, BernoulliThresholdIsExact)
{
    constexpr uint64_t kTop = uint64_t{1} << 53;  // draws are k < 2^53
    const double probabilities[] = {
        1e-300, 0.0007, 0.003, 0.5, 1.0 - 0x1.0p-53, 1.0,
        12345 * 0x1.0p-53,  // p * 2^53 is the integer 12345
    };
    for (double p : probabilities) {
        SCOPED_TRACE(testing::Message() << "p = " << p);
        const uint64_t t = Rng::bernoulliThreshold(p);
        ASSERT_GT(t, 0u);
        ASSERT_LE(t, kTop);
        // The boundary draws: k = t - 1 passes, k = t does not.
        EXPECT_TRUE(unitDouble(t - 1) < p);
        if (t < kTop) {
            EXPECT_FALSE(unitDouble(t) < p);
        }
        // Draw for draw on one stream, the same outcome.
        Rng a(101), b(101);
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(a.nextBool(p), b.nextBernoulli(t)) << "draw " << i;
        EXPECT_EQ(a.next(), b.next());
    }
    EXPECT_EQ(Rng::bernoulliThreshold(1e-300), 1u);
    EXPECT_EQ(Rng::bernoulliThreshold(12345 * 0x1.0p-53), 12345u);
    EXPECT_EQ(Rng::bernoulliThreshold(0.5), kTop / 2);
    EXPECT_EQ(Rng::bernoulliThreshold(1.0 - 0x1.0p-53), kTop - 1);
    EXPECT_EQ(Rng::bernoulliThreshold(1.0), kTop);
    EXPECT_EQ(Rng::bernoulliThreshold(2.0), kTop);
    // No draw passes a rate of zero or below, so callers can skip it.
    EXPECT_EQ(Rng::bernoulliThreshold(0.0), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(-0.5), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(std::nan("")), 0u);
}

TEST(RngTest, PoissonMean)
{
    Rng rng(29);
    const int n = 20000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextPoisson(4.0));
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, PoissonLargeLambdaUsesNormalApprox)
{
    Rng rng(31);
    const int n = 5000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextPoisson(100.0));
    EXPECT_NEAR(sum / n, 100.0, 1.5);
}

TEST(RngTest, ShufflePreservesElements)
{
    Rng rng(37);
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = items;
    rng.shuffle(shuffled);
    std::multiset<int> a(items.begin(), items.end());
    std::multiset<int> b(shuffled.begin(), shuffled.end());
    EXPECT_EQ(a, b);
}

TEST(RngTest, DeriveStreamIndependence)
{
    Rng a = Rng::deriveStream(42, "synthesis");
    Rng b = Rng::deriveStream(42, "sequencer");
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(RngTest, DeriveSeedIsDeterministic)
{
    EXPECT_EQ(Rng::deriveSeed(5, 9), Rng::deriveSeed(5, 9));
    EXPECT_NE(Rng::deriveSeed(5, 9), Rng::deriveSeed(5, 10));
    EXPECT_NE(Rng::deriveSeed(5, 9), Rng::deriveSeed(6, 9));
}

TEST(RngTest, Fnv1aDistinguishesStrings)
{
    EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
    EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
}

} // namespace
} // namespace dnastore
