/**
 * @file
 * Behavioural tests for the PCR model: selective amplification,
 * mispriming with prefix overwrite, touchdown stringency, multiplex
 * reactions, and leftover-primer artifacts.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "sim/pcr.h"
#include "support/fixtures.h"

namespace dnastore::sim {
namespace {

const dna::Sequence &kRev = test::revPrimer();

/** Molecule: fwd_primer-like prefix + payload + reverse site. */
dna::Sequence
makeStrand(const dna::Sequence &prefix, const std::string &payload)
{
    return prefix + dna::Sequence(payload) + kRev.reverseComplement();
}

SpeciesInfo
info(uint64_t block)
{
    SpeciesInfo result;
    result.block = block;
    return result;
}

TEST(PcrTest, PerfectMatchAmplifiesExponentially)
{
    dna::Sequence primer("ACGTACGTACGTACGTACGT");
    Pool pool;
    pool.add(makeStrand(primer, "TTTTGGGGCCCCAAAA"), info(0), 1.0);

    PcrParams params;
    params.cycles = 10;
    params.efficiency_max = 1.0;
    Pool out = runPcr(pool, {{primer, 1.0}}, kRev, params);
    ASSERT_EQ(out.speciesCount(), 1u);
    EXPECT_NEAR(out.totalMass(), 1024.0, 1.0);  // 2^10
}

TEST(PcrTest, NonMatchingStrandNotAmplified)
{
    dna::Sequence primer("ACGTACGTACGTACGTACGT");
    dna::Sequence other("GGATCCGGATCCGGATCCGG");
    Pool pool;
    pool.add(makeStrand(other, "TTTTGGGGCCCCAAAA"), info(1), 1.0);

    PcrParams params;
    params.cycles = 10;
    Pool out = runPcr(pool, {{primer, 1.0}}, kRev, params);
    EXPECT_NEAR(out.totalMass(), 1.0, 1e-9);
}

TEST(PcrTest, WrongReverseSiteNotAmplified)
{
    dna::Sequence primer("ACGTACGTACGTACGTACGT");
    Pool pool;
    dna::Sequence strand =
        primer + dna::Sequence("TTTTGGGGCCCCAAAA") +
        dna::Sequence("AAAAAAAAAAAAAAAAAAAA");
    pool.add(strand, info(0), 1.0);

    PcrParams params;
    params.cycles = 10;
    Pool out = runPcr(pool, {{primer, 1.0}}, kRev, params);
    EXPECT_NEAR(out.totalMass(), 1.0, 1e-9);
}

TEST(PcrTest, SelectivityBetweenSimilarPrefixes)
{
    // Two strands whose prefixes differ by 2 internal bases: the
    // exact target must dominate after the reaction.
    dna::Sequence target("ACGTACGTACGTACGTACGT");
    dna::Sequence neighbor("ACGTACTTACGTACCTACGT");
    Pool pool;
    pool.add(makeStrand(target, "TTTTGGGGCCCCAAAA"), info(0), 1.0);
    pool.add(makeStrand(neighbor, "GGGGTTTTCCCCAAAA"), info(1), 1.0);

    PcrParams params;
    params.cycles = 18;
    Pool out = runPcr(pool, {{target, 1.0}}, kRev, params);
    double target_mass = 0.0, neighbor_mass = 0.0;
    for (const Species &s : out.species()) {
        if (s.info.block == 0)
            target_mass += s.mass;
        else
            neighbor_mass += s.mass;
    }
    EXPECT_GT(target_mass, neighbor_mass);
    EXPECT_GT(neighbor_mass, 1.0);  // but mispriming did happen
}

TEST(PcrTest, MisprimingOverwritesPrefix)
{
    // Section 8.1: misprimed amplicons carry the primer's sequence
    // but the template's payload.
    dna::Sequence target("ACGTACGTACGTACGTACGT");
    dna::Sequence neighbor("ACGTACTTACGTACCTACGT");
    Pool pool;
    pool.add(makeStrand(neighbor, "GGGGTTTTCCCCAAAA"), info(7), 1.0);

    PcrParams params;
    params.cycles = 8;
    PcrStats stats;
    Pool out = runPcr(pool, {{target, 1.0}}, kRev, params, &stats);
    EXPECT_GT(stats.misprimed_species, 0u);

    bool found_overwritten = false;
    for (const Species &s : out.species()) {
        if (s.info.misprimed) {
            EXPECT_TRUE(s.seq.startsWith(target));
            EXPECT_EQ(s.info.block, 7u);  // payload provenance kept
            found_overwritten = true;
        }
    }
    EXPECT_TRUE(found_overwritten);
}

TEST(PcrTest, TouchdownImprovesSelectivity)
{
    dna::Sequence target("ACGTACGTACGTACGTACGT");
    dna::Sequence neighbor("ACGTACTTACGTACCTACGT");

    auto run = [&](const std::vector<double> &schedule) {
        Pool pool;
        pool.add(makeStrand(target, "TTTTGGGGCCCCAAAA"), info(0), 1.0);
        pool.add(makeStrand(neighbor, "GGGGTTTTCCCCAAAA"), info(1),
                 1.0);
        PcrParams params;
        params.cycles = 20;
        params.stringency = schedule;
        Pool out = runPcr(pool, {{target, 1.0}}, kRev, params);
        double target_mass = 0.0, neighbor_mass = 0.0;
        for (const Species &s : out.species()) {
            (s.info.block == 0 ? target_mass : neighbor_mass) += s.mass;
        }
        return target_mass / neighbor_mass;
    };

    double plain = run({});
    double touchdown = run(touchdownSchedule(10, 20, 3.0));
    EXPECT_GT(touchdown, plain);
}

TEST(PcrTest, TouchdownScheduleShape)
{
    std::vector<double> schedule = touchdownSchedule(10, 28, 3.0);
    ASSERT_EQ(schedule.size(), 28u);
    EXPECT_DOUBLE_EQ(schedule[0], 3.0);
    EXPECT_DOUBLE_EQ(schedule[9], 1.0);
    EXPECT_DOUBLE_EQ(schedule[27], 1.0);
    EXPECT_GT(schedule[3], schedule[7]);
}

TEST(PcrTest, MultiplexAmplifiesAllTargets)
{
    dna::Sequence p1("ACGTACGTACGTACGTACGT");
    dna::Sequence p2("GGATCCGGATCCGGATCCGG");
    dna::Sequence p3("TCTCTAGAGATTGCAAGCAC");
    Pool pool;
    pool.add(makeStrand(p1, "AAAATTTTGGGGCCCC"), info(1), 1.0);
    pool.add(makeStrand(p2, "CCCCGGGGTTTTAAAA"), info(2), 1.0);
    pool.add(makeStrand(p3, "GGGGCCCCAAAATTTT"), info(3), 1.0);

    PcrParams params;
    params.cycles = 20;
    Pool out = runPcr(
        pool, {{p1, 1.0 / 3}, {p2, 1.0 / 3}, {p3, 1.0 / 3}}, kRev,
        params);
    for (uint64_t block : {1u, 2u, 3u}) {
        double mass = 0.0;
        for (const Species &s : out.species()) {
            if (s.info.block == block)
                mass += s.mass;
        }
        EXPECT_GT(mass, 100.0) << "block " << block;
    }
}

TEST(PcrTest, LeftoverPrimerAmplifiesEverythingWeakly)
{
    // A low-concentration main primer (carryover from a previous
    // reaction) amplifies all partition strands, producing the
    // background population of Figure 9b.
    dna::Sequence main("ACGTACGTACGTACGTACGT");
    Pool pool;
    for (int i = 0; i < 8; ++i) {
        std::string payload = "AAAATTTTGGGGCCCC";
        payload[0] = "ACGT"[i % 4];
        payload[1] = "ACGT"[(i / 4) % 4];
        pool.add(makeStrand(main, payload), info(100 + i), 1.0);
    }

    PcrParams params;
    params.cycles = 15;
    Pool out =
        runPcr(pool, {{main, 0.05}}, kRev, params);
    // Everything grows, far less than a full-strength reaction.
    double full = std::pow(1.95, 15);
    for (const Species &s : out.species()) {
        EXPECT_GT(s.mass, 1.5);
        EXPECT_LT(s.mass, full / 10.0);
    }
}

TEST(PcrTest, GainReported)
{
    dna::Sequence primer("ACGTACGTACGTACGTACGT");
    Pool pool;
    pool.add(makeStrand(primer, "TTTTGGGGCCCCAAAA"), info(0), 2.0);
    PcrParams params;
    params.cycles = 5;
    params.efficiency_max = 1.0;
    PcrStats stats;
    runPcr(pool, {{primer, 1.0}}, kRev, params, &stats);
    EXPECT_NEAR(stats.gain, 32.0, 0.5);
}

void
expectSamePool(const Pool &got, const Pool &want)
{
    ASSERT_EQ(got.speciesCount(), want.speciesCount());
    for (size_t i = 0; i < want.speciesCount(); ++i) {
        EXPECT_EQ(got.species()[i].seq, want.species()[i].seq);
        EXPECT_EQ(got.species()[i].info, want.species()[i].info);
        EXPECT_EQ(got.species()[i].mass, want.species()[i].mass);
    }
}

TEST(PcrTest, ReverseSiteMemoStartsOverForAnotherKeyOrASmallerPool)
{
    // Strands end in one of two reverse sites, and some carry a
    // one-off prefix, so both primers pick out different products.
    const dna::Sequence primer("ACGTACGTACGTACGTACGT");
    const dna::Sequence near("ACGTACGTACGTACGTACTT");
    const dna::Sequence &other_rev = test::primerPair(1).reverse;
    Pool big;
    for (int i = 0; i < 8; ++i) {
        std::string payload = "AAAATTTTGGGGCCCC";
        payload[0] = "ACGT"[i % 4];
        const dna::Sequence &rev = i % 2 ? other_rev : kRev;
        big.add((i % 3 ? primer : near) + dna::Sequence(payload) +
                    rev.reverseComplement(),
                info(i), 1.0);
    }
    Pool small;
    small.add(makeStrand(near, "CCCCAAAATTTTGGGG"), info(20), 1.0);
    small.add(makeStrand(primer, "GGGGCCCCAAAATTTT"), info(21), 1.0);

    PcrParams params;
    params.cycles = 6;
    ReverseSiteMemo memo;
    expectSamePool(runPcr(big, {{primer, 1.0}}, kRev, params, nullptr,
                          &memo),
                   runPcr(big, {{primer, 1.0}}, kRev, params));
    EXPECT_EQ(memo.sites.size(), big.speciesCount());

    // Another reverse primer over the same pool: a different key.
    expectSamePool(runPcr(big, {{primer, 1.0}}, other_rev, params,
                          nullptr, &memo),
                   runPcr(big, {{primer, 1.0}}, other_rev, params));
    EXPECT_EQ(memo.reverse, other_rev);

    // Another alignment band: a different key again.
    PcrParams narrow = params;
    narrow.max_align_dist = 2;
    expectSamePool(runPcr(big, {{primer, 1.0}}, other_rev, narrow,
                          nullptr, &memo),
                   runPcr(big, {{primer, 1.0}}, other_rev, narrow));
    EXPECT_EQ(memo.max_align_dist, 2u);

    // A pool with fewer species than the memo holds sites.
    expectSamePool(runPcr(small, {{primer, 1.0}}, kRev, params, nullptr,
                          &memo),
                   runPcr(small, {{primer, 1.0}}, kRev, params));
    EXPECT_EQ(memo.sites.size(), small.speciesCount());
}

TEST(PcrTest, EmptyPrimerListThrows)
{
    Pool pool;
    pool.add(dna::Sequence("ACGT"), info(0), 1.0);
    PcrParams params;
    EXPECT_THROW(runPcr(pool, {}, kRev, params),
                 dnastore::FatalError);
}

} // namespace
} // namespace dnastore::sim
