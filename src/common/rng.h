/**
 * @file
 * Deterministic random-number generation for reproducible experiments.
 *
 * Every stochastic component in dnastore (index-tree randomization,
 * data scrambling, synthesis bias, PCR noise, sequencing noise) draws
 * from a seeded Rng. Named sub-streams can be derived from a parent
 * seed so that independent components never share a stream, which is a
 * requirement of the paper's design: the PCR-navigable index tree is
 * regenerated from its seed rather than stored (paper Section 4.4).
 */

#ifndef DNASTORE_COMMON_RNG_H
#define DNASTORE_COMMON_RNG_H

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace dnastore {

/**
 * xoshiro256** PRNG seeded via SplitMix64.
 *
 * Small, fast, and with well-understood statistical behaviour;
 * std::mt19937 is avoided because its seeding is easy to get wrong and
 * its state is needlessly large for simulation fan-out (we create one
 * Rng per tree node on the fly).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded through SplitMix64). */
    explicit Rng(uint64_t seed = 0);

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound) using Lemire rejection. Inline,
     *  like every draw a hot loop makes, so a caller's local Rng can
     *  live in registers. */
    uint64_t
    nextBelow(uint64_t bound)
    {
        if (bound == 0) [[unlikely]]
            zeroBoundPanic();
        // Lemire's multiply-shift rejection method.
        uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        uint64_t low = static_cast<uint64_t>(m);
        if (low < bound) [[unlikely]] {
            uint64_t threshold = -bound % bound;
            while (low < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                low = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t nextInRange(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1): k * 2^-53 for the draw's top 53
     *  bits k. Both steps are exact, so the value is k * 2^-53. */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /**
     * The integer form of nextBool(p): ceil(p * 2^53), clamped to
     * [0, 2^53]. For the draw's top 53 bits k, nextDouble() < p holds
     * exactly when k < bernoulliThreshold(p):
     *  - nextDouble() is k * 2^-53 exactly (see above);
     *  - k * 2^-53 < p  <=>  k < p * 2^53, and p * 2^53 is exact in a
     *    double (a power-of-two scale of a p in (0, 1));
     *  - for an integer k, k < x  <=>  k < ceil(x), and std::ceil is
     *    exact.
     * p <= 0 (or NaN) gives 0, which no draw passes; p >= 1 gives
     * 2^53, which every draw passes. Only p > 0 gives a non-zero
     * threshold.
     */
    static uint64_t
    bernoulliThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return uint64_t{1} << 53;
        return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** nextBool(p) for @p threshold = bernoulliThreshold(p): the same
     *  draw and the same outcome, without the conversion to double. */
    bool
    nextBernoulli(uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /** Standard normal variate (Box-Muller). */
    double nextGaussian();

    /** Log-normal variate with the given log-space mu and sigma. */
    double nextLogNormal(double mu, double sigma);

    /** Bernoulli trial with success probability p. */
    bool nextBool(double p) { return nextDouble() < p; }

    /** Poisson variate (Knuth for small lambda, normal approx above). */
    uint64_t nextPoisson(double lambda);

    /** Fisher-Yates shuffle of a vector in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i) {
            size_t j = static_cast<size_t>(nextBelow(i));
            std::swap(items[i - 1], items[j]);
        }
    }

    /**
     * Derive a child Rng from this seed and a label, without
     * disturbing this generator's stream. Used to give each simulator
     * component (and each index-tree node) an independent stream.
     */
    static Rng deriveStream(uint64_t seed, std::string_view label);

    /** Derive a child seed from a parent seed and a 64-bit index. */
    static uint64_t deriveSeed(uint64_t seed, uint64_t index);

  private:
    /** Raise the PanicError of nextBelow(0). */
    [[noreturn]] static void zeroBoundPanic();

    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];

    /** Cached second Box-Muller variate. */
    double cached_gaussian_ = 0.0;
    bool has_cached_gaussian_ = false;
};

/** SplitMix64 single step; also usable as a 64-bit mixing function. */
uint64_t splitMix64(uint64_t &state);

/** FNV-1a hash of a string, for deriving stream labels. */
uint64_t fnv1a(std::string_view text);

} // namespace dnastore

#endif // DNASTORE_COMMON_RNG_H
