/**
 * @file
 * Read clustering by edit-distance similarity (Rashtchian et al. [28]
 * style, as used in paper Section 6.6 step 2).
 *
 * Reads originating from the same synthesized molecule differ only by
 * IDS sequencing noise, so they sit within a small edit-distance ball.
 * The clusterer buckets reads by randomized q-gram (MinHash)
 * signatures and then greedily assigns each read to the first cluster
 * representative within the distance threshold, creating a new
 * cluster otherwise — a single-pass approximation of the
 * distributed algorithm in [28] that is exact for well-separated
 * clusters (which scrambled payloads guarantee with high
 * probability).
 *
 * The greedy pass is inherently online: each read's assignment
 * depends only on the clusters built from the reads before it.
 * OnlineClusterer exposes exactly that as a session object — reads
 * stream in through assign()/assignBatch() and the cluster state
 * (including the MinHash band index) persists between calls — and
 * the one-shot clusterReads() is now a thin wrapper that feeds one
 * batch and sorts, so the streaming and batch paths cannot drift.
 */

#ifndef DNASTORE_CLUSTER_CLUSTERER_H
#define DNASTORE_CLUSTER_CLUSTERER_H

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dna/sequence.h"

namespace dnastore {
class ThreadPool;
}

namespace dnastore::cluster {

/** One cluster: indexes into the input read stream. */
struct Cluster
{
    std::vector<size_t> members;

    /** Index of the representative read. */
    size_t representative = 0;

    size_t size() const { return members.size(); }
};

/** Clustering parameters. */
struct ClustererParams
{
    /** q-gram length for the MinHash signature. */
    size_t qgram = 8;

    /** Number of independent hash signatures (bands). */
    size_t signatures = 4;

    /** Maximum edit distance between a read and its cluster
     *  representative. */
    size_t distance_threshold = 8;

    /** Cap on representatives compared per read, enforced across all
     *  signature bands (guards worst-case quadratic behaviour on
     *  adversarial inputs). */
    size_t max_candidates = 64;

    uint64_t seed = 17;
};

/**
 * Incremental clusterer: reads stream in one (or a batch) at a time
 * and each is placed into an existing or fresh cluster immediately,
 * by the same deterministic greedy rule the one-shot pass applies —
 * for any split of one read sequence into assign()/assignBatch()
 * calls, the final cluster state is identical to clustering the
 * concatenated sequence in one shot.
 *
 * The clusterer owns every read it has seen (the distance tests
 * against cluster representatives, and the consensus stage
 * downstream, need the bases again later). Reads are taken by value
 * and moved in, so a caller that hands over its chunk pays no copy.
 */
class OnlineClusterer
{
  public:
    explicit OnlineClusterer(ClustererParams params);

    /**
     * Place the next read of the stream. Returns the index of the
     * cluster it joined (possibly a fresh one). The read's stream
     * index is readCount() before the call.
     */
    size_t assign(dna::Sequence read);

    /**
     * Assign a chunk in order; out[i] is the cluster index read i of
     * the chunk joined. The per-read MinHash signatures fan out
     * across @p pool when non-null; the greedy assignment itself is
     * sequential in chunk order, so the result is byte-identical for
     * any thread count — and identical to assign() read by read.
     */
    std::vector<size_t> assignBatch(std::vector<dna::Sequence> reads,
                                    ThreadPool *pool = nullptr);

    /** Reads streamed in so far, in arrival order. */
    const std::vector<dna::Sequence> &reads() const { return reads_; }

    size_t readCount() const { return reads_.size(); }

    /** Clusters in creation order (NOT sorted by size). */
    const std::vector<Cluster> &clusters() const { return clusters_; }

    /**
     * Clusters sorted by decreasing size — the order the decoder
     * consumes them in (Section 8), and exactly what clusterReads()
     * returns for the same read sequence.
     */
    std::vector<Cluster> sortedClusters() const;

  private:
    /** Assign with this read's precomputed band signatures; the read
     *  moves into reads_ after its distance tests. */
    size_t assignWithSignatures(dna::Sequence &&read,
                                const uint64_t *signature);

    /** One signature band's bucket: the clusters indexed under one
     *  signature value. `order` preserves first-insertion order (the
     *  order candidates are gathered in, which the greedy assignment
     *  depends on); `members` makes the duplicate check O(1) where a
     *  linear scan was quadratic for hot buckets. */
    struct Bucket
    {
        std::vector<size_t> order;
        std::unordered_set<size_t> members;

        void
        insert(size_t cluster_idx)
        {
            if (members.insert(cluster_idx).second)
                order.push_back(cluster_idx);
        }
    };

    ClustererParams params_;
    std::vector<uint64_t> salts_;
    std::vector<dna::Sequence> reads_;
    std::vector<Cluster> clusters_;
    std::vector<std::unordered_map<uint64_t, Bucket>> buckets_;

    /** candidate_stamp_[c] == r + 1 iff cluster c is already a
     *  candidate for stream read r: an O(1) dedup that needs no
     *  per-read clearing. */
    std::vector<size_t> candidate_stamp_;

    /** Scratch reused across assigns (no per-read allocation). */
    std::vector<const std::vector<size_t> *> band_order_;
    std::vector<uint64_t> signature_scratch_;
};

/**
 * Cluster reads by similarity; returns clusters sorted by decreasing
 * size (the order in which the decoder consumes them, Section 8).
 *
 * When @p pool is non-null the per-read MinHash signatures are
 * computed on the pool; the greedy assignment pass stays sequential,
 * so the result is byte-identical for any thread count.
 */
std::vector<Cluster> clusterReads(
    const std::vector<dna::Sequence> &reads,
    const ClustererParams &params, ThreadPool *pool = nullptr);

} // namespace dnastore::cluster

#endif // DNASTORE_CLUSTER_CLUSTERER_H
