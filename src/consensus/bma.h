/**
 * @file
 * Trace reconstruction by double-sided Bitwise Majority Alignment
 * (Lin et al. [20], used in paper Sections 6.6 and 8).
 *
 * Given a cluster of noisy reads of the same original strand, BMA
 * reconstructs the strand position by position with a per-read
 * cursor: at each output position the majority base among the
 * cursors wins; disagreeing reads re-synchronize by peeking ahead
 * (classifying their error as insertion, deletion or substitution).
 * Running the same procedure from both ends and splicing the halves
 * ("double-sided") fixes the tail degradation of one-sided BMA,
 * because IDS errors desynchronize cursors more the farther they are
 * from the anchored end.
 */

#ifndef DNASTORE_CONSENSUS_BMA_H
#define DNASTORE_CONSENSUS_BMA_H

#include <cstddef>
#include <vector>

#include "dna/sequence.h"

namespace dnastore {
class ThreadPool;
}

namespace dnastore::consensus {

/** Reconstruction parameters. */
struct BmaParams
{
    /** How far a disagreeing read peeks ahead to re-synchronize. */
    size_t lookahead = 2;

    /** Alignment-refinement iterations applied after the BMA splice
     *  (0 disables). Each pass banded-aligns every read against the
     *  current draft and replaces each draft base by the majority of
     *  the aligned read bases, which repairs positions where BMA
     *  cursors desynchronized. */
    size_t refine_iterations = 2;

    /** Band half-width for the refinement alignment. A read within
     *  this many edits of the draft aligns by diagonal transition,
     *  so its cost grows with its distance to the draft, not with
     *  the band; a read beyond the band takes the banded DP (and
     *  votes only if the band still reaches the alignment's end). */
    size_t refine_band = 8;
};

/**
 * One refinement pass: banded-align each read to @p draft and take a
 * per-position majority over the aligned bases. The output keeps the
 * draft's length, and the votes are exactly those of a banded DP
 * alignment with the backtrace preferring diagonal, then deleted
 * draft base, then inserted read base.
 */
dna::Sequence refineDraft(const dna::Sequence &draft,
                          const std::vector<dna::Sequence> &reads,
                          size_t band);

/**
 * One-sided BMA from the 5' end; reconstructs exactly
 * @p expected_length bases. Position j is decided at step j from
 * cursor state built by the steps before it, so the output is a
 * prefix of the output of any longer @p expected_length run.
 */
dna::Sequence bmaForward(const std::vector<dna::Sequence> &reads,
                         size_t expected_length,
                         const BmaParams &params = {});

/**
 * Double-sided BMA: forward pass, backward pass (on reversed reads),
 * spliced at the middle, then params.refine_iterations refinement
 * passes. The forward pass runs only the ceil(n/2) steps whose bases
 * the splice keeps and the backward pass only the floor(n/2) others
 * (n = @p expected_length); by bmaForward's prefix property the
 * splice equals that of two full-length passes. This is the
 * reconstruction used for every cluster in the decoding pipeline.
 */
dna::Sequence bmaDoubleSided(const std::vector<dna::Sequence> &reads,
                             size_t expected_length,
                             const BmaParams &params = {});

/**
 * Reconstruct one strand per cluster: out[i] = bmaDoubleSided over
 * { reads[idx] : idx in clusters[i] }. Clusters are independent, so
 * the fan-out runs on @p pool when non-null (inline otherwise);
 * results land in cluster order either way, keeping the output
 * identical for any thread count. Each task gathers its own cluster's
 * reads transiently, so peak memory stays O(largest cluster) per
 * thread rather than a second copy of the whole read set. Empty
 * clusters yield an empty Sequence.
 *
 * @p refine_fallbacks, when given, receives the number of read
 * alignments (one per read and refinement pass) whose distance to
 * the draft exceeded params.refine_band and so took the banded DP:
 * reads drifting from their consensus. Counted per cluster and
 * summed in cluster order, so it is the same for any pool size.
 */
std::vector<dna::Sequence> bmaDoubleSidedBatch(
    const std::vector<dna::Sequence> &reads,
    const std::vector<std::vector<size_t>> &clusters,
    size_t expected_length, const BmaParams &params = {},
    ThreadPool *pool = nullptr, size_t *refine_fallbacks = nullptr);

} // namespace dnastore::consensus

#endif // DNASTORE_CONSENSUS_BMA_H
