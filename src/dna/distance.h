/**
 * @file
 * String distance metrics used throughout the pipeline.
 *
 * Hamming distance governs primer-library compatibility; Levenshtein
 * (edit) distance governs read clustering and mispriming (reads that
 * promiscuously amplify are 2-3 edit distance from the target index,
 * paper Section 8.1). The thresholded variant keeps clustering cheap,
 * and the prefix-alignment variant models how well a PCR primer anneals
 * to the 5' end of a template.
 */

#ifndef DNASTORE_DNA_DISTANCE_H
#define DNASTORE_DNA_DISTANCE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dna/sequence.h"

namespace dnastore::dna {

/** Sentinel returned by banded searches when the bound is exceeded. */
inline constexpr size_t kDistanceInfinity =
    std::numeric_limits<size_t>::max();

/**
 * The slide step of diagonal transition: advance row @p i along
 * diagonal @p k (a[i] against b[i + k]) while the bases match,
 * stopping at @p end = min(|a|, |b| - k). Compares eight bases per
 * step: the first set bit of the XOR of two words locates the first
 * mismatch. Shared by bandedLevenshtein and consensus refinement;
 * inline because a typical slide covers only a few bases.
 */
inline ptrdiff_t
slideDiagonal(const char *a, const char *b, ptrdiff_t i, ptrdiff_t k,
              ptrdiff_t end)
{
    for (; i + 8 <= end; i += 8) {
        uint64_t wa = 0;
        uint64_t wb = 0;
        std::memcpy(&wa, a + i, 8);
        std::memcpy(&wb, b + i + k, 8);
        const uint64_t diff = wa ^ wb;
        if (diff != 0) {
            const int bit = std::endian::native == std::endian::little
                                ? std::countr_zero(diff)
                                : std::countl_zero(diff);
            return i + bit / 8;
        }
    }
    while (i < end && a[i] == b[i + k])
        ++i;
    return i;
}

/**
 * Hamming distance between equal-length sequences; if lengths differ,
 * the length difference is added to the mismatch count of the common
 * prefix (the convention used when comparing index elongations).
 */
size_t hammingDistance(const Sequence &a, const Sequence &b);

/** Full Levenshtein (insert/delete/substitute) distance. */
size_t levenshteinDistance(const Sequence &a, const Sequence &b);

/**
 * Threshold Levenshtein distance: exact value if it is <= @p max_dist,
 * kDistanceInfinity otherwise. Computed by diagonal transition, which
 * walks matching bases eight at a time: O(max_dist^2 + len / 8) word
 * steps on near-identical inputs such as the reads clustering
 * compares, O(max_dist * max(len)) in the worst case. Scalar code,
 * the same on every ISA.
 */
size_t bandedLevenshtein(const Sequence &a, const Sequence &b,
                         size_t max_dist);

/** Length of the longest common prefix. */
size_t longestCommonPrefix(const Sequence &a, const Sequence &b);

/**
 * Result of aligning a primer against the 5' prefix of a template.
 */
struct PrefixAlignment
{
    /** Edit distance of the best prefix alignment. */
    size_t distance = kDistanceInfinity;

    /** Template length consumed by the best alignment. */
    size_t template_consumed = 0;

    /** Number of mismatching positions among the primer's 3'-most
     * @c three_prime_window bases (substitutions or indels landing
     * there). PCR extension is far more sensitive to 3' mismatches. */
    size_t three_prime_mismatches = 0;
};

/**
 * Semi-global alignment of @p primer against a prefix of
 * @p template_seq (template suffix is free).
 *
 * @param primer            the (possibly elongated) forward primer
 * @param template_seq      the molecule, 5'->3'
 * @param max_dist          band limit; distances above it are reported
 *                          as kDistanceInfinity
 * @param three_prime_window how many primer-3'-end positions count as
 *                          the critical window
 */
PrefixAlignment alignPrimerToPrefix(const Sequence &primer,
                                    const Sequence &template_seq,
                                    size_t max_dist,
                                    size_t three_prime_window = 3);

/** Result of a position-weighted primer-template alignment. */
struct WeightedAlignment
{
    /** Minimal weighted edit cost (kWeightInfinity if outside the
     *  band). */
    double cost = 1e300;

    /** Template length consumed by the minimal-cost alignment. */
    size_t template_consumed = 0;
};

inline constexpr double kWeightInfinity = 1e300;

/**
 * Position-weighted semi-global alignment for PCR annealing.
 *
 * Polymerase extension tolerates mismatches and bulges near the
 * primer's 5' end far better than near the 3' terminus, which is
 * exactly the asymmetry the paper's sparse index exploits (sibling
 * indexes differ in their final, i.e. 3'-most, chunk). Every edit —
 * substitution, primer-base bulge, or extra template base — is
 * charged the weight of the primer position it touches:
 * @p three_prime_factor for the last @p three_prime_window primer
 * positions and 1.0 elsewhere. The DP minimizes total weighted cost
 * directly, so "sneaky" bulge alignments cannot dodge the 3' penalty
 * the way an unweighted-distance-then-inspect-the-tail scheme can.
 *
 * Bulged bases (indels) destabilize a primer-template duplex more
 * than internal mismatches, so gaps are charged
 * @p gap_factor x the positional weight.
 *
 * @param band maximum |primer position - template position| skew
 */
WeightedAlignment alignPrimerWeighted(const Sequence &primer,
                                      const Sequence &template_seq,
                                      size_t band,
                                      size_t three_prime_window = 3,
                                      double three_prime_factor = 3.0,
                                      double gap_factor = 2.5);

/**
 * alignPrimerWeighted() for one primer against a run of templates,
 * reusing DP rows across templates that share a prefix.
 *
 * Row i of the banded DP reads only the template bases
 * [0, min(n, i + band)), where n = min(|template|, |primer| + band).
 * When the next template has the same first min(n, i + band) bases
 * and that window ends at the same place, row i (and every row
 * before it) is the previous template's row, cell for cell. The
 * aligner keeps all |primer| + 1 rows of the last template and
 * restarts at the first row whose window differs. Every cell it
 * computes comes from the same operands as in alignPrimerWeighted(),
 * so costs and end positions are bit-identical to it.
 *
 * Templates in pool order share long prefixes (a block's 15
 * molecules share its whole index), which is where the reuse pays.
 * Not thread-safe; one aligner per primer and caller.
 */
class PrimerAligner
{
  public:
    PrimerAligner(const Sequence &primer, size_t band,
                  size_t three_prime_window = 3,
                  double three_prime_factor = 3.0,
                  double gap_factor = 2.5);

    /** alignPrimerWeighted(primer, @p template_seq, ...) with the
     *  constructor's primer and parameters. */
    WeightedAlignment align(const Sequence &template_seq);

  private:
    std::string primer_;
    size_t band_;
    size_t three_prime_window_;
    double three_prime_factor_;
    double gap_factor_;

    /** Row i at rows_[i * stride_]; stride_ = |primer| + band + 2. */
    size_t stride_;
    std::vector<double> rows_;

    /** The first n bases of the last template the rows belong to. */
    std::string last_;

    /** How many rows, from row 0, hold the last template's DP. */
    size_t valid_rows_ = 0;
};

} // namespace dnastore::dna

#endif // DNASTORE_DNA_DISTANCE_H
