/**
 * @file
 * Tests for double-sided BMA trace reconstruction.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "consensus/bma.h"
#include "dna/distance.h"

namespace dnastore::consensus {
namespace {

dna::Sequence
randomSeq(dnastore::Rng &rng, size_t len)
{
    std::vector<dna::Base> bases(len);
    for (dna::Base &base : bases)
        base = static_cast<dna::Base>(rng.nextBelow(4));
    return dna::Sequence(bases);
}

dna::Sequence
idsNoise(dnastore::Rng &rng, const dna::Sequence &seq, double sub,
         double ins, double del)
{
    std::vector<dna::Base> out;
    for (size_t i = 0; i < seq.size(); ++i) {
        while (rng.nextBool(ins))
            out.push_back(static_cast<dna::Base>(rng.nextBelow(4)));
        if (rng.nextBool(del))
            continue;
        dna::Base base = seq.baseAt(i);
        if (rng.nextBool(sub)) {
            base = static_cast<dna::Base>(
                (static_cast<uint8_t>(base) + 1 + rng.nextBelow(3)) % 4);
        }
        out.push_back(base);
    }
    return dna::Sequence(out);
}

TEST(BmaTest, CleanReadsReproduceExactly)
{
    dnastore::Rng rng(1);
    dna::Sequence original = randomSeq(rng, 150);
    std::vector<dna::Sequence> reads(7, original);
    EXPECT_EQ(bmaForward(reads, 150), original);
    EXPECT_EQ(bmaDoubleSided(reads, 150), original);
}

TEST(BmaTest, SubstitutionsOutvoted)
{
    dnastore::Rng rng(2);
    dna::Sequence original = randomSeq(rng, 150);
    std::vector<dna::Sequence> reads;
    for (int i = 0; i < 9; ++i)
        reads.push_back(idsNoise(rng, original, 0.03, 0.0, 0.0));
    EXPECT_EQ(bmaDoubleSided(reads, 150), original);
}

TEST(BmaTest, IndelsRecovered)
{
    dnastore::Rng rng(3);
    int exact = 0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
        dna::Sequence original = randomSeq(rng, 150);
        std::vector<dna::Sequence> reads;
        for (int i = 0; i < 10; ++i)
            reads.push_back(idsNoise(rng, original, 0.005, 0.005,
                                     0.005));
        if (bmaDoubleSided(reads, 150) == original)
            ++exact;
    }
    EXPECT_GE(exact, trials * 8 / 10);
}

TEST(BmaTest, DoubleSidedBeatsOneSidedUnderIndels)
{
    dnastore::Rng rng(4);
    size_t forward_errors = 0, double_errors = 0;
    for (int t = 0; t < 40; ++t) {
        dna::Sequence original = randomSeq(rng, 150);
        std::vector<dna::Sequence> reads;
        for (int i = 0; i < 6; ++i)
            reads.push_back(idsNoise(rng, original, 0.01, 0.01, 0.01));
        forward_errors += dna::levenshteinDistance(
            bmaForward(reads, 150), original);
        double_errors += dna::levenshteinDistance(
            bmaDoubleSided(reads, 150), original);
    }
    EXPECT_LE(double_errors, forward_errors);
}

TEST(BmaTest, OutputLengthIsAlwaysExpected)
{
    dnastore::Rng rng(5);
    dna::Sequence original = randomSeq(rng, 150);
    std::vector<dna::Sequence> reads;
    for (int i = 0; i < 5; ++i)
        reads.push_back(idsNoise(rng, original, 0.05, 0.02, 0.02));
    EXPECT_EQ(bmaDoubleSided(reads, 150).size(), 150u);
    EXPECT_EQ(bmaDoubleSided(reads, 140).size(), 140u);
}

TEST(BmaTest, RefineDraftRepairsCorruptedDraft)
{
    dnastore::Rng rng(7);
    dna::Sequence original = randomSeq(rng, 150);
    std::vector<dna::Sequence> reads;
    for (int i = 0; i < 8; ++i)
        reads.push_back(idsNoise(rng, original, 0.01, 0.0, 0.0));
    // Corrupt the draft in several positions; refinement must vote
    // them back.
    std::string draft = original.str();
    draft[10] = draft[10] == 'A' ? 'C' : 'A';
    draft[75] = draft[75] == 'G' ? 'T' : 'G';
    draft[140] = draft[140] == 'A' ? 'G' : 'A';
    dna::Sequence refined =
        refineDraft(dna::Sequence(draft), reads, 8);
    EXPECT_EQ(refined, original);
}

TEST(BmaTest, RefineDraftKeepsLength)
{
    dnastore::Rng rng(8);
    dna::Sequence original = randomSeq(rng, 120);
    std::vector<dna::Sequence> reads;
    for (int i = 0; i < 5; ++i)
        reads.push_back(idsNoise(rng, original, 0.02, 0.02, 0.02));
    dna::Sequence refined = refineDraft(original, reads, 8);
    EXPECT_EQ(refined.size(), 120u);
}

/**
 * Test-local copy of the size_t banded DP refinement: every read is
 * globally aligned to the draft inside |column - row| <= band, the
 * backtrace prefers diagonal, then deleted draft base, then inserted
 * read base, and each draft base becomes the majority of its aligned
 * read bases (the draft's own base wins ties, then the lowest base).
 */
dna::Sequence
bandedReferenceRefine(const dna::Sequence &draft_seq,
                      const std::vector<dna::Sequence> &reads,
                      size_t band)
{
    const std::string &draft = draft_seq.str();
    const size_t n = draft.size();
    std::vector<size_t> votes(n * 4, 0);
    for (const dna::Sequence &read_seq : reads) {
        const std::string &read = read_seq.str();
        const size_t m = read.size();
        const size_t inf = SIZE_MAX / 2;
        std::vector<std::vector<size_t>> cost(
            n + 1, std::vector<size_t>(m + 1, inf));
        cost[0][0] = 0;
        for (size_t j = 1; j <= std::min(m, band); ++j)
            cost[0][j] = j;
        for (size_t i = 1; i <= n; ++i) {
            size_t lo = i > band ? i - band : 1;
            size_t hi = std::min(m, i + band);
            if (i <= band)
                cost[i][0] = i;
            for (size_t j = lo; j <= hi; ++j) {
                size_t sub = cost[i - 1][j - 1] +
                             (draft[i - 1] == read[j - 1] ? 0 : 1);
                size_t del = cost[i - 1][j] + 1;
                size_t ins = cost[i][j - 1] + 1;
                cost[i][j] = std::min({sub, del, ins});
            }
        }
        if (cost[n][m] >= inf)
            continue;
        size_t i = n, j = m;
        while (i > 0 && j > 0) {
            size_t sub = cost[i - 1][j - 1] +
                         (draft[i - 1] == read[j - 1] ? 0 : 1);
            if (cost[i][j] == sub) {
                ++votes[(i - 1) * 4 +
                        static_cast<size_t>(
                            dna::charToBase(read[j - 1]))];
                --i;
                --j;
            } else if (cost[i][j] == cost[i - 1][j] + 1) {
                --i;
            } else {
                --j;
            }
        }
    }
    std::string out(n, 'A');
    for (size_t j = 0; j < n; ++j) {
        size_t best = static_cast<size_t>(dna::charToBase(draft[j]));
        for (size_t b = 0; b < 4; ++b) {
            if (votes[j * 4 + b] > votes[j * 4 + best])
                best = b;
        }
        out[j] = dna::baseToChar(static_cast<dna::Base>(best));
    }
    return dna::Sequence(out);
}

/** @p seq with @p count random bases inserted at random positions. */
dna::Sequence
withInsertions(dnastore::Rng &rng, const dna::Sequence &seq,
               size_t count)
{
    std::string out = seq.str();
    for (size_t c = 0; c < count; ++c) {
        out.insert(out.begin() +
                       static_cast<ptrdiff_t>(
                           rng.nextBelow(out.size() + 1)),
                   dna::baseToChar(
                       static_cast<dna::Base>(rng.nextBelow(4))));
    }
    return dna::Sequence(out);
}

/** @p seq with min(count, |seq|) distinct positions substituted. */
dna::Sequence
withSubstitutions(dnastore::Rng &rng, const dna::Sequence &seq,
                  size_t count)
{
    std::string out = seq.str();
    std::vector<size_t> positions(out.size());
    for (size_t p = 0; p < positions.size(); ++p)
        positions[p] = p;
    for (size_t c = 0; c < std::min(count, out.size()); ++c) {
        std::swap(positions[c],
                  positions[c + rng.nextBelow(out.size() - c)]);
        const size_t p = positions[c];
        const uint64_t shift = 1 + rng.nextBelow(3);
        out[p] = dna::baseToChar(static_cast<dna::Base>(
            (static_cast<uint64_t>(dna::charToBase(out[p])) + shift) %
            4));
    }
    return dna::Sequence(out);
}

/**
 * A read of the draft's length whose base at every position differs
 * from the draft's bases there and at both neighbours. Refined
 * together with one other read, it outvotes the draft where it votes
 * and that read does not, so the output shows where the read voted,
 * not only where it voted for a different base.
 */
dna::Sequence
voteProbe(const dna::Sequence &draft)
{
    const std::string &d = draft.str();
    std::string out(d.size(), 'A');
    for (size_t p = 0; p < d.size(); ++p) {
        for (char c : {'A', 'C', 'G', 'T'}) {
            if (c != d[p] && (p == 0 || c != d[p - 1]) &&
                (p + 1 == d.size() || c != d[p + 1])) {
                out[p] = c;
                break;
            }
        }
    }
    return dna::Sequence(out);
}

// refineDraft must vote exactly like the size_t banded DP, whichever
// way each read is aligned: reads within the band, reads beyond it
// whose end cell the band still reaches, and reads it does not reach.
// Unrelated random reads of a short draft sit within the wide bands
// and are full of equal-cost paths, so they pin the backtrace's tie
// order; short drafts therefore get more trials.
TEST(BmaTest, RefineDraftMatchesBandedReference)
{
    struct Noise
    {
        double sub, ins, del;
    };
    // The sequencer's default rates (~0.45% in all), then 3% and 10%
    // split evenly over substitutions, insertions and deletions.
    const Noise noises[] = {{0.003, 0.0007, 0.0007},
                            {0.01, 0.01, 0.01},
                            {0.1 / 3, 0.1 / 3, 0.1 / 3}};
    const size_t bands[] = {0, 1, 2, 8, 20};
    const size_t lengths[] = {1, 7, 150};
    dnastore::Rng rng(19);
    for (size_t n : lengths) {
        const int trials = n < 150 ? 20 : 3;
        for (const Noise &noise : noises) {
            for (int trial = 0; trial < trials; ++trial) {
                dna::Sequence original = randomSeq(rng, n);
                std::vector<dna::Sequence> noisy;
                for (int r = 0; r < 12; ++r)
                    noisy.push_back(idsNoise(rng, original, noise.sub,
                                             noise.ins, noise.del));
                // The draft refinement sees in the decoder: BMA alone.
                BmaParams bma_only;
                bma_only.refine_iterations = 0;
                const dna::Sequence draft =
                    bmaDoubleSided(noisy, n, bma_only);
                const dna::Sequence probe = voteProbe(draft);
                const std::string &bases = draft.str();
                for (size_t band : bands) {
                    std::vector<dna::Sequence> reads = noisy;
                    reads.push_back(dna::Sequence(""));
                    reads.push_back(dna::Sequence(
                        bases.substr(0, n >= 2 ? n - 2 : 0)));
                    reads.push_back(dna::Sequence(
                        bases.substr(std::min<size_t>(2, n))));
                    reads.push_back(withInsertions(rng, draft, band));
                    reads.push_back(
                        withInsertions(rng, draft, band + 1));
                    // m = n, distance up to band + 1: the DP fallback
                    // with a reachable end cell.
                    reads.push_back(
                        withSubstitutions(rng, draft, band + 1));
                    for (int r = 0; r < 4; ++r)
                        reads.push_back(randomSeq(rng, n));
                    const std::string where =
                        "n=" + std::to_string(n) +
                        " band=" + std::to_string(band) +
                        " sub=" + std::to_string(noise.sub) +
                        " trial=" + std::to_string(trial);
                    EXPECT_EQ(
                        refineDraft(draft, reads, band).str(),
                        bandedReferenceRefine(draft, reads, band).str())
                        << where;
                    // One read at a time, so a single read's votes
                    // cannot hide behind the majority.
                    for (const dna::Sequence &read : reads) {
                        for (const std::vector<dna::Sequence> &set :
                             {std::vector<dna::Sequence>{read},
                              std::vector<dna::Sequence>{read, probe}}) {
                            EXPECT_EQ(
                                refineDraft(draft, set, band).str(),
                                bandedReferenceRefine(draft, set, band)
                                    .str())
                                << where << " read=" << read.str()
                                << " probed=" << (set.size() > 1);
                        }
                    }
                }
            }
        }
    }
}

/** @p reads, each read back to front. */
std::vector<dna::Sequence>
reversedReads(const std::vector<dna::Sequence> &reads)
{
    std::vector<dna::Sequence> out;
    for (const dna::Sequence &read : reads)
        out.emplace_back(std::string(read.str().rbegin(),
                                     read.str().rend()));
    return out;
}

// The property that lets bmaDoubleSided stop each pass at the splice
// point: a shorter forward pass is a prefix of a longer one.
TEST(BmaTest, ForwardPassIsPrefixStable)
{
    dnastore::Rng rng(21);
    for (double noise : {0.01, 0.1 / 3}) {
        dna::Sequence original = randomSeq(rng, 150);
        std::vector<dna::Sequence> reads;
        for (int r = 0; r < 12; ++r)
            reads.push_back(idsNoise(rng, original, noise, noise, noise));
        for (const std::vector<dna::Sequence> &set :
             {reads, reversedReads(reads)}) {
            for (size_t full : {size_t{150}, size_t{151}}) {
                const std::string longer = bmaForward(set, full).str();
                for (size_t len : {size_t{1}, size_t{75}, size_t{149}}) {
                    EXPECT_EQ(bmaForward(set, len).str(),
                              longer.substr(0, len))
                        << "noise=" << noise << " len=" << len
                        << " full=" << full;
                }
            }
        }
    }
}

/**
 * Test-local double-sided reconstruction from full-length public
 * passes: bmaForward over the reads and over their reversals for all
 * @p n bases, the first ceil(n/2) forward and floor(n/2) backward
 * bases spliced, then up to params.refine_iterations refineDraft
 * passes, stopping at the first pass that changes nothing.
 */
dna::Sequence
fullLengthSplice(const std::vector<dna::Sequence> &reads, size_t n,
                 const BmaParams &params)
{
    const std::string fwd = bmaForward(reads, n, params).str();
    const std::string bwd =
        bmaForward(reversedReads(reads), n, params).str();
    const size_t half = n / 2 + n % 2;
    std::string spliced = fwd.substr(0, half);
    for (size_t j = half; j < n; ++j)
        spliced.push_back(bwd[n - 1 - j]);
    dna::Sequence draft(spliced);
    for (size_t pass = 0; pass < params.refine_iterations; ++pass) {
        dna::Sequence refined =
            refineDraft(draft, reads, params.refine_band);
        if (refined == draft)
            break;
        draft = std::move(refined);
    }
    return draft;
}

// bmaDoubleSided runs each pass only to the splice point; the result
// must equal the splice of two full-length passes, from the sequencer's
// noise up to 25%, for odd, even and tiny lengths, and for an expected
// length one base longer than the strand.
TEST(BmaTest, DoubleSidedMatchesFullLengthSplice)
{
    struct Noise
    {
        double sub, ins, del;
    };
    // The sequencer's default rates (~0.45% in all), then 3%, 10% and
    // 25% split evenly over substitutions, insertions and deletions.
    const Noise noises[] = {{0.003, 0.0007, 0.0007},
                            {0.01, 0.01, 0.01},
                            {0.1 / 3, 0.1 / 3, 0.1 / 3},
                            {0.25 / 3, 0.25 / 3, 0.25 / 3}};
    // Strands are min(n, 150) bases long, so n = 151 differs.
    const size_t lengths[] = {1, 2, 3, 7, 150, 151};
    const size_t lookaheads[] = {0, 1, 2, 4};
    const size_t refine_iterations[] = {0, 2};
    const size_t cluster_sizes[] = {1, 2, 5, 75};
    dnastore::Rng rng(20);
    for (size_t n : lengths) {
        for (const Noise &noise : noises) {
            for (size_t size : cluster_sizes) {
                for (int trial = 0; trial < 5; ++trial) {
                    dna::Sequence original =
                        randomSeq(rng, std::min<size_t>(n, 150));
                    std::vector<dna::Sequence> reads;
                    for (size_t r = 0; r < size; ++r)
                        reads.push_back(idsNoise(rng, original, noise.sub,
                                                 noise.ins, noise.del));
                    for (size_t lookahead : lookaheads) {
                        for (size_t iterations : refine_iterations) {
                            BmaParams params;
                            params.lookahead = lookahead;
                            params.refine_iterations = iterations;
                            EXPECT_EQ(
                                bmaDoubleSided(reads, n, params).str(),
                                fullLengthSplice(reads, n, params).str())
                                << "n=" << n << " sub=" << noise.sub
                                << " size=" << size
                                << " trial=" << trial
                                << " lookahead=" << lookahead
                                << " refine=" << iterations;
                        }
                    }
                }
            }
        }
    }
}

TEST(BmaTest, SingleReadPassesThrough)
{
    dna::Sequence read("ACGTACGTAC");
    EXPECT_EQ(bmaDoubleSided({read}, 10), read);
}

TEST(BmaTest, EmptyClusterThrows)
{
    EXPECT_THROW(bmaForward({}, 10), dnastore::FatalError);
}

/** Parameterized: reconstruction accuracy across cluster sizes. */
class BmaClusterSizeTest : public ::testing::TestWithParam<int>
{};

TEST_P(BmaClusterSizeTest, AccuracyImprovesWithClusterSize)
{
    int cluster_size = GetParam();
    dnastore::Rng rng(6000 + cluster_size);
    size_t total_errors = 0;
    for (int t = 0; t < 20; ++t) {
        dna::Sequence original = randomSeq(rng, 150);
        std::vector<dna::Sequence> reads;
        for (int i = 0; i < cluster_size; ++i)
            reads.push_back(idsNoise(rng, original, 0.01, 0.003,
                                     0.003));
        total_errors += dna::levenshteinDistance(
            bmaDoubleSided(reads, 150), original);
    }
    // With >= 5 reads, the average error should be well below the
    // per-read error burden (~2.4 errors/read).
    if (cluster_size >= 5) {
        EXPECT_LT(total_errors, 20u);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BmaClusterSizeTest,
                         ::testing::Values(1, 3, 5, 9, 15));

} // namespace
} // namespace dnastore::consensus
