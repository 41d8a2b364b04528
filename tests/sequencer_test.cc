/**
 * @file
 * Tests for the sequencing model (sampling + IDS noise).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "dna/distance.h"
#include "sim/sequencer.h"

namespace dnastore::sim {
namespace {

Pool
twoSpeciesPool(double mass_a, double mass_b)
{
    Pool pool;
    SpeciesInfo a, b;
    a.block = 0;
    b.block = 1;
    pool.add(dna::Sequence(std::string(60, 'A') + std::string(60, 'C')),
             a, mass_a);
    pool.add(dna::Sequence(std::string(60, 'G') + std::string(60, 'T')),
             b, mass_b);
    return pool;
}

TEST(SequencerTest, SamplingFollowsMass)
{
    Pool pool = twoSpeciesPool(90.0, 10.0);
    SequencerParams params;
    params.sub_rate = 0.0;
    params.ins_rate = 0.0;
    params.del_rate = 0.0;
    std::vector<Read> reads = sequencePool(pool, 10000, params);
    size_t first = 0;
    for (const Read &read : reads)
        first += read.species_index == 0 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(first) / 10000.0, 0.9, 0.02);
}

TEST(SequencerTest, NoiselessReadsAreExact)
{
    Pool pool = twoSpeciesPool(1.0, 1.0);
    SequencerParams params;
    params.sub_rate = 0.0;
    params.ins_rate = 0.0;
    params.del_rate = 0.0;
    for (const Read &read : sequencePool(pool, 100, params)) {
        EXPECT_EQ(read.seq,
                  pool.species()[read.species_index].seq);
    }
}

TEST(SequencerTest, NoiseRatesRealized)
{
    Pool pool = twoSpeciesPool(1.0, 1.0);
    SequencerParams params;
    params.sub_rate = 0.05;
    params.ins_rate = 0.0;
    params.del_rate = 0.0;
    size_t total_dist = 0;
    size_t total_bases = 0;
    std::vector<Read> reads = sequencePool(pool, 2000, params);
    for (const Read &read : reads) {
        total_dist += dna::levenshteinDistance(
            read.seq, pool.species()[read.species_index].seq);
        total_bases += 120;
    }
    double rate =
        static_cast<double>(total_dist) / static_cast<double>(total_bases);
    EXPECT_NEAR(rate, 0.05, 0.01);
}

TEST(SequencerTest, IndelsChangeLength)
{
    Pool pool = twoSpeciesPool(1.0, 1.0);
    SequencerParams params;
    params.sub_rate = 0.0;
    params.ins_rate = 0.05;
    params.del_rate = 0.05;
    bool longer = false, shorter = false;
    for (const Read &read : sequencePool(pool, 500, params)) {
        longer |= read.seq.size() > 120;
        shorter |= read.seq.size() < 120;
    }
    EXPECT_TRUE(longer);
    EXPECT_TRUE(shorter);
}

TEST(SequencerTest, Deterministic)
{
    Pool pool = twoSpeciesPool(3.0, 7.0);
    SequencerParams params;
    auto a = sequencePool(pool, 50, params);
    auto b = sequencePool(pool, 50, params);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seq, b[i].seq);
        EXPECT_EQ(a[i].species_index, b[i].species_index);
    }
}

/**
 * The sequencing channel as a plain per-base loop: a lower_bound
 * species pick per read, then nextBool() per insertion, deletion and
 * substitution check, with each check skipped when its rate is zero.
 * sequencePool() must make the same draws in the same order.
 */
std::vector<Read>
referenceSequencePool(const Pool &pool, size_t num_reads,
                      const SequencerParams &params)
{
    Rng rng = Rng::deriveStream(params.seed, "sequencer");
    std::vector<double> cumulative;
    double total = 0.0;
    for (const Species &s : pool.species()) {
        total += s.mass;
        cumulative.push_back(total);
    }
    auto randomBase = [&] {
        return dna::baseToChar(static_cast<dna::Base>(rng.nextBelow(4)));
    };
    std::vector<Read> reads;
    for (size_t r = 0; r < num_reads; ++r) {
        double u = rng.nextDouble() * total;
        size_t idx = static_cast<size_t>(
            std::lower_bound(cumulative.begin(), cumulative.end(), u) -
            cumulative.begin());
        idx = std::min(idx, pool.speciesCount() - 1);
        std::string out;
        for (char base : pool.species()[idx].seq.str()) {
            while (params.ins_rate > 0.0 && rng.nextBool(params.ins_rate))
                out.push_back(randomBase());
            if (params.del_rate > 0.0 && rng.nextBool(params.del_rate))
                continue;
            if (params.sub_rate > 0.0 &&
                rng.nextBool(params.sub_rate)) {
                auto offset = static_cast<uint8_t>(1 + rng.nextBelow(3));
                base = dna::baseToChar(static_cast<dna::Base>(
                    (static_cast<uint8_t>(dna::charToBase(base)) +
                     offset) %
                    4));
            }
            out.push_back(base);
        }
        while (params.ins_rate > 0.0 && rng.nextBool(params.ins_rate))
            out.push_back(randomBase());
        reads.push_back(Read{dna::Sequence(out), idx});
    }
    return reads;
}

dna::Sequence
randomStrand(Rng &rng, size_t len)
{
    std::string bases(len, 'A');
    for (char &base : bases)
        base = "ACGT"[rng.nextBelow(4)];
    return dna::Sequence(bases);
}

/** A pool of @p masses.size() random strands whose lengths cycle
 *  through @p lengths. */
Pool
randomPool(Rng &rng, const std::vector<double> &masses,
           const std::vector<size_t> &lengths)
{
    Pool pool;
    for (size_t i = 0; i < masses.size(); ++i) {
        SpeciesInfo info;
        info.block = i;
        pool.add(randomStrand(rng, lengths[i % lengths.size()]), info,
                 masses[i]);
    }
    return pool;
}

/** Pools that stress the species pick: equal and heavily skewed
 *  masses, zero-mass species, mixed lengths, one species, and a
 *  subnormal total. */
std::vector<std::pair<std::string, Pool>>
pickStressPools()
{
    Rng rng(0x5E0);
    std::vector<std::pair<std::string, Pool>> pools;
    pools.emplace_back("equal masses",
                       randomPool(rng, std::vector<double>(64, 1.0), {150}));
    std::vector<double> skew;
    for (int i = 0; i < 200; ++i)
        skew.push_back(std::pow(10.0, -12.0 + 18.0 * rng.nextDouble()));
    skew[17] = 1e9;
    pools.emplace_back("heavy skew", randomPool(rng, skew, {150}));
    std::vector<double> zeros;
    for (int i = 0; i < 120; ++i)
        zeros.push_back(i % 3 == 0 || (i >= 40 && i < 60) || i >= 110
                            ? 0.0
                            : 1.0 + static_cast<double>(i % 7));
    pools.emplace_back("zero-mass species",
                       randomPool(rng, zeros, {150}));
    pools.emplace_back(
        "lengths 1, 150 and 300",
        randomPool(rng, {2.0, 1.0, 3.0, 0.5, 1.0, 4.0}, {1, 150, 300}));
    pools.emplace_back("one species",
                       randomPool(rng, {1.0}, {150}));
    pools.emplace_back("tiny total",
                       randomPool(rng, {1e-310, 3e-310, 2e-310}, {150}));
    return pools;
}

struct Rates
{
    double sub, ins, del;
};

/** All-zero rates, each rate zero in turn, the defaults, and two
 *  noisier channels. */
std::vector<Rates>
channelRateSets()
{
    const SequencerParams defaults;
    return {
        {0.0, 0.0, 0.0},
        {0.0, defaults.ins_rate, defaults.del_rate},
        {defaults.sub_rate, 0.0, defaults.del_rate},
        {defaults.sub_rate, defaults.ins_rate, 0.0},
        {defaults.sub_rate, defaults.ins_rate, defaults.del_rate},
        {0.02, 0.01, 0.01},
        {0.10, 0.05, 0.05},
    };
}

TEST(SequencerTest, MatchesPerBaseReference)
{
    for (const auto &[name, pool] : pickStressPools()) {
        for (const Rates &rates : channelRateSets()) {
            for (size_t num_reads : {size_t{0}, size_t{1}, size_t{1200}}) {
                for (uint64_t seed : {7u, 11u, 0x5EEDu}) {
                    SCOPED_TRACE(testing::Message()
                                 << name << ", rates " << rates.sub << "/"
                                 << rates.ins << "/" << rates.del << ", "
                                 << num_reads << " reads, seed " << seed);
                    SequencerParams params;
                    params.sub_rate = rates.sub;
                    params.ins_rate = rates.ins;
                    params.del_rate = rates.del;
                    params.seed = seed;
                    const std::vector<Read> got =
                        sequencePool(pool, num_reads, params);
                    const std::vector<Read> want =
                        referenceSequencePool(pool, num_reads, params);
                    ASSERT_EQ(got.size(), want.size());
                    for (size_t i = 0; i < want.size(); ++i) {
                        ASSERT_EQ(got[i].seq, want[i].seq) << "read " << i;
                        ASSERT_EQ(got[i].species_index,
                                  want[i].species_index)
                            << "read " << i;
                    }
                }
            }
        }
    }
}

// A range read feeds its decode chunk by chunk from one Sequencer, so
// the run must not depend on how it is split into next() calls.
TEST(SequencerTest, SplitsMatchOneCall)
{
    constexpr size_t kReads = 2600;
    const std::vector<size_t> splits = {0, 1, 7, 1199, 1200,
                                        kReads - 2407};
    for (const auto &[name, pool] : pickStressPools()) {
        for (const Rates &rates : channelRateSets()) {
            SCOPED_TRACE(testing::Message()
                         << name << ", rates " << rates.sub << "/"
                         << rates.ins << "/" << rates.del);
            SequencerParams params;
            params.sub_rate = rates.sub;
            params.ins_rate = rates.ins;
            params.del_rate = rates.del;
            const std::vector<Read> want =
                sequencePool(pool, kReads, params);
            ASSERT_EQ(want.size(), kReads);

            std::vector<std::vector<Read>> runs(3);
            Sequencer split(pool, params);
            for (size_t n : splits) {
                std::vector<Read> part = split.next(n);
                ASSERT_EQ(part.size(), n);
                runs[0].insert(runs[0].end(), part.begin(), part.end());
            }
            Sequencer single(pool, params);
            for (size_t r = 0; r < kReads; ++r)
                runs[1].push_back(std::move(single.next(1).front()));
            runs[2] = Sequencer(pool, params).next(kReads);

            for (size_t run = 0; run < runs.size(); ++run) {
                const std::vector<Read> &got = runs[run];
                ASSERT_EQ(got.size(), kReads) << "run " << run;
                for (size_t i = 0; i < kReads; ++i) {
                    ASSERT_EQ(got[i].seq, want[i].seq)
                        << "run " << run << ", read " << i;
                    ASSERT_EQ(got[i].species_index,
                              want[i].species_index)
                        << "run " << run << ", read " << i;
                }
            }
        }
    }
}

TEST(SequencerTest, EmptyPoolThrows)
{
    Pool pool;
    SequencerParams params;
    EXPECT_THROW(sequencePool(pool, 10, params), dnastore::FatalError);
}

} // namespace
} // namespace dnastore::sim
