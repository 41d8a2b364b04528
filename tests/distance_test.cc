/**
 * @file
 * Unit and property tests for distance metrics and primer-prefix
 * alignment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dna/distance.h"

namespace dnastore::dna {
namespace {

Sequence
randomSeq(Rng &rng, size_t len)
{
    std::vector<Base> bases(len);
    for (Base &base : bases)
        base = static_cast<Base>(rng.nextBelow(4));
    return Sequence(bases);
}

TEST(HammingTest, EqualLength)
{
    EXPECT_EQ(hammingDistance(Sequence("ACGT"), Sequence("ACGT")), 0u);
    EXPECT_EQ(hammingDistance(Sequence("ACGT"), Sequence("ACGA")), 1u);
    EXPECT_EQ(hammingDistance(Sequence("AAAA"), Sequence("TTTT")), 4u);
}

TEST(HammingTest, LengthDifferenceCounts)
{
    EXPECT_EQ(hammingDistance(Sequence("ACGT"), Sequence("AC")), 2u);
    EXPECT_EQ(hammingDistance(Sequence("AC"), Sequence("ACGT")), 2u);
}

TEST(LevenshteinTest, KnownValues)
{
    EXPECT_EQ(levenshteinDistance(Sequence("ACGT"), Sequence("ACGT")),
              0u);
    EXPECT_EQ(levenshteinDistance(Sequence("ACGT"), Sequence("AGT")),
              1u);
    EXPECT_EQ(levenshteinDistance(Sequence("ACGT"), Sequence("TGCA")),
              4u);
    EXPECT_EQ(levenshteinDistance(Sequence("GATTACA"),
                                  Sequence("GCATGCA")),
              3u);
    EXPECT_EQ(levenshteinDistance(Sequence(), Sequence("ACG")), 3u);
}

TEST(BandedLevenshteinTest, MatchesFullWithinBand)
{
    Rng rng(5);
    for (int trial = 0; trial < 200; ++trial) {
        Sequence a = randomSeq(rng, 20 + rng.nextBelow(20));
        Sequence b = randomSeq(rng, 20 + rng.nextBelow(20));
        size_t full = levenshteinDistance(a, b);
        size_t banded = bandedLevenshtein(a, b, 40);
        EXPECT_EQ(banded, full);
    }
}

TEST(BandedLevenshteinTest, ReportsInfinityBeyondBound)
{
    Sequence a("AAAAAAAAAA");
    Sequence b("TTTTTTTTTT");
    EXPECT_EQ(bandedLevenshtein(a, b, 3), kDistanceInfinity);
}

TEST(BandedLevenshteinTest, BoundaryExact)
{
    Sequence a("ACGTACGT");
    Sequence b("ACGAACGA");  // distance 2
    EXPECT_EQ(bandedLevenshtein(a, b, 2), 2u);
    EXPECT_EQ(bandedLevenshtein(a, b, 1), kDistanceInfinity);
}

TEST(BandedLevenshteinTest, LengthGapShortCircuit)
{
    Sequence a("ACGT");
    Sequence b("ACGTACGTACGT");
    EXPECT_EQ(bandedLevenshtein(a, b, 3), kDistanceInfinity);
}

/** All ACGT strings of length 0..max_len, by enumeration. */
std::vector<Sequence>
allSeqsUpTo(size_t max_len)
{
    const char kBases[] = "ACGT";
    std::vector<Sequence> all;
    for (size_t len = 0; len <= max_len; ++len) {
        size_t count = 1;
        for (size_t i = 0; i < len; ++i)
            count *= 4;
        for (size_t code = 0; code < count; ++code) {
            std::string s(len, 'A');
            size_t v = code;
            for (size_t i = 0; i < len; ++i) {
                s[i] = kBases[v & 3];
                v >>= 2;
            }
            all.emplace_back(s);
        }
    }
    return all;
}

// Differential audit of the banded DP's row seeding and early exit:
// tiny strings maximize the weight of the boundary cells (row 0, the
// curr[lo-1] edge, bands clipped to a single cell), which is exactly
// where a seeding bug would hide. Exhaustive over every pair of
// ACGT strings up to length 5 and every max_dist 0..4.
TEST(BandedLevenshteinTest, ExhaustiveSmallStringsMatchFull)
{
    const std::vector<Sequence> seqs = allSeqsUpTo(5);
    for (const Sequence &a : seqs) {
        for (const Sequence &b : seqs) {
            const size_t full = levenshteinDistance(a, b);
            for (size_t max_dist = 0; max_dist <= 4; ++max_dist) {
                const size_t want =
                    full <= max_dist ? full : kDistanceInfinity;
                ASSERT_EQ(bandedLevenshtein(a, b, max_dist), want)
                    << "a=" << a.str() << " b=" << b.str()
                    << " max_dist=" << max_dist;
            }
        }
    }
}

TEST(BandedLevenshteinTest, RandomizedDifferentialLongerStrings)
{
    Rng rng(97);
    for (int trial = 0; trial < 20000; ++trial) {
        Sequence a = randomSeq(rng, rng.nextBelow(13));
        Sequence b = randomSeq(rng, rng.nextBelow(13));
        const size_t max_dist = rng.nextBelow(7);
        const size_t full = levenshteinDistance(a, b);
        const size_t want =
            full <= max_dist ? full : kDistanceInfinity;
        ASSERT_EQ(bandedLevenshtein(a, b, max_dist), want)
            << "a=" << a.str() << " b=" << b.str()
            << " max_dist=" << max_dist;
    }
}

/** Each max_dist the operating-point tests run at: exact-match only,
 *  one edit, the clusterer's threshold, and a wide band. */
constexpr size_t kOperatingBands[] = {0, 1, 8, 40};

enum class Edit { kSubstitute, kInsert, kDelete };

/** @p s with one @p kind edit at @p pos (an insertion goes before
 *  s[pos]; a substitution always changes the base). */
std::string
editAt(Rng &rng, std::string s, size_t pos, Edit kind)
{
    const char kBases[] = "ACGT";
    char base = kBases[rng.nextBelow(4)];
    switch (kind) {
    case Edit::kSubstitute:
        while (base == s[pos])
            base = kBases[rng.nextBelow(4)];
        s[pos] = base;
        break;
    case Edit::kInsert:
        s.insert(pos, 1, base);
        break;
    case Edit::kDelete:
        s.erase(pos, 1);
        break;
    }
    return s;
}

void
expectMatchesFull(const std::string &a, const std::string &b,
                  size_t max_dist)
{
    const size_t full = levenshteinDistance(Sequence(a), Sequence(b));
    const size_t want = full <= max_dist ? full : kDistanceInfinity;
    EXPECT_EQ(bandedLevenshtein(Sequence(a), Sequence(b), max_dist), want)
        << "a=" << a << " b=" << b << " max_dist=" << max_dist;
}

// The clusterer compares 150-base reads a few edits apart, where the
// diagonals slide over long runs of equal 8-byte words. Pairs carry 0
// to max_dist + 2 random edits, straddling the accept boundary.
TEST(BandedLevenshteinTest, RandomEditsOnReadLengthPairs)
{
    Rng rng(150);
    for (size_t max_dist : kOperatingBands) {
        for (size_t edits = 0; edits <= max_dist + 2; ++edits) {
            for (int trial = 0; trial < 12; ++trial) {
                const std::string a = randomSeq(rng, 150).str();
                std::string b = a;
                for (size_t k = 0; k < edits; ++k) {
                    const auto kind = static_cast<Edit>(rng.nextBelow(3));
                    b = editAt(rng, b, rng.nextBelow(b.size()), kind);
                }
                expectMatchesFull(a, b, max_dist);
                expectMatchesFull(b, a, max_dist);
            }
        }
    }
}

// Edits on and beside 8-byte word boundaries, and in the last word,
// where the word-at-a-time slide hands over to the byte tail. Every
// pair of offsets is also combined, so a diagonal resumes sliding
// after its first mismatch.
TEST(BandedLevenshteinTest, EditsAtWordBoundaries)
{
    Rng rng(8);
    const std::string a = randomSeq(rng, 150).str();
    const std::vector<size_t> offsets = {0,   7,   8,   9,   15,  16,  142,
                                         143, 144, 145, 146, 147, 148, 149};
    const Edit kinds[] = {Edit::kSubstitute, Edit::kInsert, Edit::kDelete};
    for (size_t first : offsets) {
        for (Edit kind : kinds) {
            const std::string one = editAt(rng, a, first, kind);
            for (size_t max_dist : kOperatingBands)
                expectMatchesFull(a, one, max_dist);
            for (size_t second : offsets) {
                if (second >= first || second >= one.size())
                    continue;
                const std::string two = editAt(rng, one, second, kind);
                for (size_t max_dist : kOperatingBands)
                    expectMatchesFull(a, two, max_dist);
            }
        }
    }
}

// A length gap of exactly max_dist is still answerable; one more is
// rejected before any diagonal is walked.
TEST(BandedLevenshteinTest, LengthGapAtBound)
{
    Rng rng(31);
    for (size_t max_dist : kOperatingBands) {
        const std::string a = randomSeq(rng, 150).str();
        for (size_t gap : {max_dist, max_dist + 1}) {
            std::string shorter = a;
            for (size_t k = 0; k < gap; ++k) {
                shorter = editAt(rng, shorter, rng.nextBelow(shorter.size()),
                                 Edit::kDelete);
            }
            const std::string longer = a + randomSeq(rng, gap).str();
            for (const std::string &b : {shorter, longer}) {
                expectMatchesFull(a, b, max_dist);
                expectMatchesFull(b, a, max_dist);
                const size_t want =
                    gap == max_dist ? gap : kDistanceInfinity;
                EXPECT_EQ(bandedLevenshtein(Sequence(a), Sequence(b),
                                            max_dist),
                          want);
            }
        }
    }
}

TEST(LcpTest, Basics)
{
    EXPECT_EQ(longestCommonPrefix(Sequence("ACGT"), Sequence("ACGA")),
              3u);
    EXPECT_EQ(longestCommonPrefix(Sequence("ACGT"), Sequence("ACGT")),
              4u);
    EXPECT_EQ(longestCommonPrefix(Sequence("T"), Sequence("A")), 0u);
}

TEST(PrefixAlignTest, ExactPrefix)
{
    Sequence primer("ACGTACGT");
    Sequence templ("ACGTACGTTTTTGGGGCCCC");
    PrefixAlignment align = alignPrimerToPrefix(primer, templ, 4);
    EXPECT_EQ(align.distance, 0u);
    EXPECT_EQ(align.template_consumed, 8u);
    EXPECT_EQ(align.three_prime_mismatches, 0u);
}

TEST(PrefixAlignTest, SingleSubstitution)
{
    Sequence primer("ACGTACGT");
    Sequence templ("ACCTACGTTTTTGGGG");
    PrefixAlignment align = alignPrimerToPrefix(primer, templ, 4);
    EXPECT_EQ(align.distance, 1u);
    EXPECT_EQ(align.three_prime_mismatches, 0u);
}

TEST(PrefixAlignTest, ThreePrimeMismatchFlagged)
{
    Sequence primer("ACGTACGA");
    Sequence templ("ACGTACGTTTTTGGGG");
    PrefixAlignment align = alignPrimerToPrefix(primer, templ, 4);
    EXPECT_EQ(align.distance, 1u);
    EXPECT_GE(align.three_prime_mismatches, 1u);
}

TEST(PrefixAlignTest, BeyondBandIsInfinity)
{
    Sequence primer("AAAAAAAA");
    Sequence templ("TTTTTTTTTTTTTTTT");
    PrefixAlignment align = alignPrimerToPrefix(primer, templ, 3);
    EXPECT_EQ(align.distance, kDistanceInfinity);
}

TEST(PrefixAlignTest, InsertionInTemplate)
{
    // Template has one extra base inside the primer region.
    Sequence primer("ACGTACGT");
    Sequence templ("ACGGTACGTTTTT");
    PrefixAlignment align = alignPrimerToPrefix(primer, templ, 4);
    EXPECT_EQ(align.distance, 1u);
    EXPECT_EQ(align.template_consumed, 9u);
}

TEST(PrefixAlignTest, TemplateShorterThanPrimer)
{
    Sequence primer("ACGTACGT");
    Sequence templ("ACGTA");
    PrefixAlignment align = alignPrimerToPrefix(primer, templ, 4);
    EXPECT_EQ(align.distance, 3u);  // three primer bases unmatched
}

// Literal-value pins of the weighted alignment's cost convention
// with the default knobs (three_prime_window=3, three_prime_factor=3,
// gap_factor=2.5). Primer "ACGTAC" has weight 1.0 at positions 0-2
// and 3.0 at positions 3-5 (the 3' window). Every expected cost below
// is a short sum of exactly-representable doubles, so the
// comparisons are exact.
TEST(WeightedAlignTest, ExactMatchIsFree)
{
    WeightedAlignment align = alignPrimerWeighted(
        Sequence("ACGTAC"), Sequence("ACGTAC"), 3);
    EXPECT_DOUBLE_EQ(align.cost, 0.0);
    EXPECT_EQ(align.template_consumed, 6u);
}

TEST(WeightedAlignTest, LeadingTemplateGapsChargeFivePrimeWeight)
{
    // Row 0 skips leading template bases at gap_factor * weight(0):
    // two skipped bases cost 2 * 2.5 * 1.0 = 5.0.
    WeightedAlignment align = alignPrimerWeighted(
        Sequence("ACGTAC"), Sequence("GGACGTAC"), 3);
    EXPECT_DOUBLE_EQ(align.cost, 5.0);
    EXPECT_EQ(align.template_consumed, 8u);
}

TEST(WeightedAlignTest, BandLimitsLeadingSkew)
{
    // Four leading template bases must be skipped to align cleanly:
    // 4 * 2.5 * weight(0) = 10.0, ending at skew 4.
    Sequence primer("AAATTT");
    Sequence templ("GGGGAAATTT");
    WeightedAlignment wide = alignPrimerWeighted(primer, templ, 4);
    EXPECT_DOUBLE_EQ(wide.cost, 10.0);
    EXPECT_EQ(wide.template_consumed, 10u);
    // A narrower band cannot reach that skew, so the best alignment
    // it can offer is strictly worse.
    WeightedAlignment narrow = alignPrimerWeighted(primer, templ, 3);
    EXPECT_GT(narrow.cost, wide.cost);
}

TEST(WeightedAlignTest, PrimerBulgeChargesPositionWeight)
{
    // Primer G at position 2 (weight 1.0) has no template partner:
    // gap_factor * 1.0 = 2.5.
    WeightedAlignment outside = alignPrimerWeighted(
        Sequence("ACGTAC"), Sequence("ACTAC"), 3);
    EXPECT_DOUBLE_EQ(outside.cost, 2.5);
    EXPECT_EQ(outside.template_consumed, 5u);

    // Primer A at position 4 sits in the 3' window (weight 3.0):
    // gap_factor * 3.0 = 7.5.
    WeightedAlignment inside = alignPrimerWeighted(
        Sequence("ACGTAC"), Sequence("ACGTC"), 3);
    EXPECT_DOUBLE_EQ(inside.cost, 7.5);
    EXPECT_EQ(inside.template_consumed, 5u);
}

TEST(WeightedAlignTest, SubstitutionWeightDependsOnPosition)
{
    WeightedAlignment five_prime = alignPrimerWeighted(
        Sequence("ACGTAC"), Sequence("TCGTAC"), 3);
    EXPECT_DOUBLE_EQ(five_prime.cost, 1.0);

    WeightedAlignment three_prime = alignPrimerWeighted(
        Sequence("ACGTAC"), Sequence("ACGTAT"), 3);
    EXPECT_DOUBLE_EQ(three_prime.cost, 3.0);
}

TEST(WeightedAlignTest, ExtraTemplateBaseChargesTouchedPosition)
{
    // Extra template G between primer positions 2 and 3 is charged
    // the weight of the position it touches: 2.5 * weight(2) = 2.5.
    WeightedAlignment align = alignPrimerWeighted(
        Sequence("ACGTAC"), Sequence("ACGGTAC"), 3);
    EXPECT_DOUBLE_EQ(align.cost, 2.5);
    EXPECT_EQ(align.template_consumed, 7u);
}

TEST(WeightedAlignTest, PrimerFarLongerThanTemplateIsInfinite)
{
    WeightedAlignment align = alignPrimerWeighted(
        Sequence("ACGTACGT"), Sequence("AC"), 3);
    EXPECT_DOUBLE_EQ(align.cost, kWeightInfinity);
    EXPECT_EQ(align.template_consumed, 0u);
}

/**
 * Full-matrix reference for alignPrimerWeighted: the same band rule
 * (cells with |i - j| <= band over the first min(|t|, m + band)
 * template bases), recurrence, free template suffix and
 * first-strict-minimum end, but every row kept and nothing reused.
 */
WeightedAlignment
referenceAlignPrimerWeighted(const Sequence &primer,
                             const Sequence &template_seq, size_t band,
                             size_t window, double three_prime_factor,
                             double gap_factor)
{
    WeightedAlignment result;
    const std::string &p = primer.str();
    const std::string &t = template_seq.str();
    const size_t m = p.size();
    const size_t n = std::min(t.size(), m + band);
    // A primer base needs at least one template base in its row.
    if (m > n + band || (m > 0 && n == 0))
        return result;
    auto weight = [&](size_t pos) {
        return pos + window >= m ? three_prime_factor : 1.0;
    };
    std::vector<std::vector<double>> cost(
        m + 1, std::vector<double>(n + 1, kWeightInfinity));
    for (size_t j = 0; j <= std::min(n, band); ++j)
        cost[0][j] = static_cast<double>(j) * gap_factor * weight(0);
    for (size_t i = 1; i <= m; ++i) {
        const double gap = gap_factor * weight(i - 1);
        for (size_t j = 0; j <= n; ++j) {
            if (i > j + band || j > i + band)
                continue;
            if (j == 0) {
                cost[i][0] = cost[i - 1][0] == kWeightInfinity
                                 ? kWeightInfinity
                                 : cost[i - 1][0] + gap;
                continue;
            }
            double best = cost[i - 1][j - 1] +
                          (p[i - 1] == t[j - 1] ? 0.0 : weight(i - 1));
            best = std::min(best, cost[i - 1][j] + gap);
            best = std::min(best, cost[i][j - 1] + gap);
            cost[i][j] = best;
        }
    }
    for (size_t j = m > band ? m - band : 0; j <= n; ++j) {
        if (cost[m][j] < result.cost) {
            result.cost = cost[m][j];
            result.template_consumed = j;
        }
    }
    return result;
}

/** @p seq with @p edits random substitutions, insertions and
 *  deletions. */
Sequence
mutate(Rng &rng, const Sequence &seq, size_t edits)
{
    std::string text = seq.str();
    for (size_t e = 0; e < edits; ++e) {
        const char base = "ACGT"[rng.nextBelow(4)];
        const uint64_t kind = text.empty() ? 1 : rng.nextBelow(3);
        const size_t pos =
            static_cast<size_t>(rng.nextBelow(text.size() + 1));
        if (kind == 0 && pos < text.size())
            text[pos] = base;
        else if (kind == 1)
            text.insert(text.begin() + static_cast<ptrdiff_t>(pos), base);
        else if (pos < text.size())
            text.erase(text.begin() + static_cast<ptrdiff_t>(pos));
    }
    return Sequence(text);
}

/**
 * The next template of a run through a PrimerAligner: the first
 * 0 to @p max_shared bases of @p prev (the rows the aligner may
 * reuse), then a near-copy of the rest of the primer and random
 * bases, sometimes cut short. Lengths change from template to
 * template, and some templates are shorter than the primer.
 */
Sequence
nextRunTemplate(Rng &rng, const Sequence &primer, const Sequence &prev,
                size_t max_shared)
{
    const size_t shared =
        std::min(prev.size(),
                 static_cast<size_t>(rng.nextBelow(max_shared + 1)));
    Sequence next = prev.substr(0, shared);
    if (rng.nextBool(0.6)) {
        next += mutate(rng, primer.substr(std::min(shared, primer.size())),
                       rng.nextBelow(3));
    }
    next += randomSeq(rng, rng.nextBelow(21));
    if (rng.nextBool(0.2))
        next = next.substr(0, rng.nextBelow(next.size() + 1));
    return next.size() > 60 ? next.substr(0, 60) : next;
}

TEST(WeightedAlignTest, MatchesFullMatrixReference)
{
    Rng rng = Rng::deriveStream(0xA119, "weighted-align-reference");
    // Runs of templates through one aligner draw from their own
    // stream, so the single-call cases stay what they were.
    Rng run_rng = Rng::deriveStream(0xA119, "weighted-align-runs");
    size_t finite = 0;
    size_t run_finite = 0;
    for (int c = 0; c < 20000; ++c) {
        const Sequence primer = randomSeq(rng, rng.nextBelow(41));
        Sequence templ;
        if (rng.nextBool(0.7)) {
            // A near-copy of the primer, then random bases: the
            // alignments the PCR model actually scores.
            templ = mutate(rng, primer, rng.nextBelow(6)) +
                    randomSeq(rng, rng.nextBelow(21));
            if (templ.size() > 60)
                templ = templ.substr(0, 60);
        } else {
            templ = randomSeq(rng, rng.nextBelow(61));
        }
        const size_t band = rng.nextBelow(10);
        const size_t window = rng.nextBelow(5);
        double three_prime_factor = 3.0;
        double gap_factor = 2.5;
        switch (rng.nextBelow(3)) {
          case 0:
            break;  // the alignPrimerWeighted defaults
          case 1:
            three_prime_factor = 6.0;  // the PCR model's defaults
            break;
          default:
            three_prime_factor = 0.25 + 8.0 * rng.nextDouble();
            gap_factor = 0.25 + 4.0 * rng.nextDouble();
            break;
        }
        const WeightedAlignment got = alignPrimerWeighted(
            primer, templ, band, window, three_prime_factor, gap_factor);
        const WeightedAlignment want = referenceAlignPrimerWeighted(
            primer, templ, band, window, three_prime_factor, gap_factor);
        ASSERT_EQ(got.cost, want.cost)
            << "case " << c << " primer " << primer.str() << " template "
            << templ.str() << " band " << band;
        ASSERT_EQ(got.template_consumed, want.template_consumed)
            << "case " << c;
        if (want.cost < kWeightInfinity)
            ++finite;

        // The same primer and parameters against a run of templates
        // through the aligner the PCR model uses, each template
        // sharing 0 to m + band + 1 leading bases with the last.
        PrimerAligner aligner(primer, band, window, three_prime_factor,
                              gap_factor);
        Sequence run_templ = templ;
        for (int step = 0; step < 6; ++step) {
            if (step > 0) {
                run_templ = nextRunTemplate(run_rng, primer, run_templ,
                                            primer.size() + band + 1);
            }
            const WeightedAlignment run_got = aligner.align(run_templ);
            const WeightedAlignment run_want =
                referenceAlignPrimerWeighted(primer, run_templ, band,
                                             window, three_prime_factor,
                                             gap_factor);
            ASSERT_EQ(run_got.cost, run_want.cost)
                << "case " << c << " step " << step << " primer "
                << primer.str() << " template " << run_templ.str()
                << " band " << band;
            ASSERT_EQ(run_got.template_consumed,
                      run_want.template_consumed)
                << "case " << c << " step " << step;
            if (step > 0 && run_want.cost < kWeightInfinity)
                ++run_finite;
        }
    }
    // Most cases must produce a real alignment, or the comparison
    // says little about the recurrence.
    EXPECT_GT(finite, 10000u);
    EXPECT_GT(run_finite, 50000u);
}

} // namespace
} // namespace dnastore::dna
