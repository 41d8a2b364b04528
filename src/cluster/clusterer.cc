#include "cluster/clusterer.h"

#include <algorithm>
#include <utility>

#include "common/arena.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "dna/distance.h"

namespace dnastore::cluster {

namespace {

/**
 * MinHash signatures of a read's q-gram set, one per hash salt. The
 * rolling 2-bit q-gram packing and splitMix64 mixing run in the
 * vectorized minhash kernel (all salt lanes advance together); reads
 * shorter than one q-gram have an empty q-gram set and fall back to
 * hashing the whole string, exactly as before.
 */
void
minHashSignatures(const dna::Sequence &read, size_t q,
                  const uint64_t *salts, size_t num_salts,
                  uint64_t *out)
{
    const std::string &s = read.str();
    if (s.size() < q) {
        for (size_t b = 0; b < num_salts; ++b)
            out[b] = fnv1a(s) ^ salts[b];
        return;
    }
    const uint64_t mask = (q * 2 >= 64) ? ~uint64_t{0}
                                        : ((uint64_t{1} << (q * 2)) - 1);
    Arena &arena = Arena::scratch();
    ArenaScope scope(arena);
    uint8_t *bases = arena.allocArray<uint8_t>(s.size());
    for (size_t i = 0; i < s.size(); ++i)
        bases[i] = static_cast<uint8_t>(dna::charToBase(s[i]));
    simd::kernels().minhash(bases, s.size(), q, mask, salts,
                            num_salts, out);
}

} // namespace

OnlineClusterer::OnlineClusterer(ClustererParams params)
    : params_(params)
{
    Rng rng = Rng::deriveStream(params_.seed, "clusterer");
    salts_.resize(params_.signatures);
    for (uint64_t &salt : salts_)
        salt = rng.next();
    buckets_.resize(params_.signatures);
    band_order_.resize(params_.signatures);
    signature_scratch_.resize(params_.signatures);
}

size_t
OnlineClusterer::assign(dna::Sequence read)
{
    minHashSignatures(read, params_.qgram, salts_.data(),
                      salts_.size(), signature_scratch_.data());
    return assignWithSignatures(std::move(read),
                                signature_scratch_.data());
}

size_t
OnlineClusterer::assignWithSignatures(dna::Sequence &&read,
                                      const uint64_t *signature)
{
    const size_t bands = salts_.size();
    // The read's stream index; it joins reads_ after its distance
    // tests, which compare it only with earlier reads.
    const size_t r = reads_.size();

    // Test up to max_candidates distinct candidates — a cap across
    // all bands, not per band — and join the first within the
    // threshold. The bands are drained round-robin (entry i of every
    // band's bucket before entry i + 1 of any) so that one hot bucket
    // cannot starve the other bands' entries out of the capped
    // budget: a cluster that is only reachable through a sparser
    // band stays reachable. Each candidate is tested as the gather
    // reaches it, so the rest are never gathered after a hit.
    size_t depth = 0;
    for (size_t b = 0; b < bands; ++b) {
        auto it = buckets_[b].find(signature[b]);
        band_order_[b] =
            it == buckets_[b].end() ? nullptr : &it->second.order;
        if (band_order_[b])
            depth = std::max(depth, band_order_[b]->size());
    }
    size_t assigned = SIZE_MAX;
    size_t tested = 0;
    for (size_t i = 0; i < depth && assigned == SIZE_MAX &&
                       tested < params_.max_candidates;
         ++i) {
        for (size_t b = 0; b < bands; ++b) {
            if (!band_order_[b] || i >= band_order_[b]->size())
                continue;
            size_t cluster_idx = (*band_order_[b])[i];
            if (candidate_stamp_[cluster_idx] == r + 1)
                continue;
            candidate_stamp_[cluster_idx] = r + 1;
            const dna::Sequence &rep =
                reads_[clusters_[cluster_idx].representative];
            if (dna::bandedLevenshtein(read, rep,
                                       params_.distance_threshold) !=
                dna::kDistanceInfinity) {
                assigned = cluster_idx;
                break;
            }
            if (++tested >= params_.max_candidates)
                break;
        }
    }

    if (assigned == SIZE_MAX) {
        assigned = clusters_.size();
        Cluster cluster;
        cluster.representative = r;
        clusters_.push_back(cluster);
        candidate_stamp_.push_back(0);
    }
    reads_.push_back(std::move(read));
    clusters_[assigned].members.push_back(r);
    // Index every member's signatures, not only the
    // representative's: a later read whose MinHash differs from
    // the representative can still reach the cluster through any
    // earlier member (improves recall under IDS noise).
    for (size_t b = 0; b < bands; ++b)
        buckets_[b][signature[b]].insert(assigned);
    return assigned;
}

std::vector<size_t>
OnlineClusterer::assignBatch(std::vector<dna::Sequence> reads,
                             ThreadPool *pool)
{
    const size_t bands = salts_.size();
    // Phase 1: per-read MinHash signatures. Each read's row is
    // independent, so this fans out across the pool; the signatures
    // depend only on (read, salt), never on scheduling.
    std::vector<uint64_t> signatures(reads.size() * bands);
    parallelFor(pool, reads.size(), [&](size_t r) {
        minHashSignatures(reads[r], params_.qgram, salts_.data(),
                          bands, signatures.data() + r * bands);
    });

    // Phase 2: sequential greedy bucket/assign in chunk order. This
    // pass defines the clustering (each read joins the first
    // candidate within the distance threshold, in bucket order) and
    // therefore stays single-threaded; with precomputed signatures
    // it is pure hash lookups plus the distance tests.
    std::vector<size_t> assigned(reads.size());
    for (size_t r = 0; r < reads.size(); ++r) {
        // .data() arithmetic, not operator[]: with zero bands the
        // offset stays 0 and the pointer is never dereferenced.
        assigned[r] = assignWithSignatures(
            std::move(reads[r]), signatures.data() + r * bands);
    }
    return assigned;
}

std::vector<Cluster>
OnlineClusterer::sortedClusters() const
{
    std::vector<Cluster> sorted = clusters_;
    std::sort(sorted.begin(), sorted.end(),
              [](const Cluster &a, const Cluster &b) {
                  return a.size() > b.size();
              });
    return sorted;
}

std::vector<Cluster>
clusterReads(const std::vector<dna::Sequence> &reads,
             const ClustererParams &params, ThreadPool *pool)
{
    OnlineClusterer clusterer(params);
    clusterer.assignBatch(reads, pool);
    return clusterer.sortedClusters();
}

} // namespace dnastore::cluster
