/**
 * @file
 * Tests for q-gram/MinHash read clustering.
 */

#include <array>
#include <string>

#include <gtest/gtest.h>

#include "cluster/clusterer.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace dnastore::cluster {
namespace {

dna::Sequence
randomSeq(dnastore::Rng &rng, size_t len)
{
    std::vector<dna::Base> bases(len);
    for (dna::Base &base : bases)
        base = static_cast<dna::Base>(rng.nextBelow(4));
    return dna::Sequence(bases);
}

/** Apply light IDS noise to a sequence. */
dna::Sequence
noisy(dnastore::Rng &rng, const dna::Sequence &seq, double rate)
{
    std::vector<dna::Base> out;
    for (size_t i = 0; i < seq.size(); ++i) {
        double roll = rng.nextDouble();
        if (roll < rate / 3) {
            continue;  // deletion
        } else if (roll < 2 * rate / 3) {
            out.push_back(static_cast<dna::Base>(rng.nextBelow(4)));
            out.push_back(seq.baseAt(i));  // insertion
        } else if (roll < rate) {
            out.push_back(static_cast<dna::Base>(rng.nextBelow(4)));
        } else {
            out.push_back(seq.baseAt(i));
        }
    }
    return dna::Sequence(out);
}

TEST(ClustererTest, SeparatesDistinctOrigins)
{
    dnastore::Rng rng(1);
    const size_t origins = 20;
    const size_t copies = 10;
    std::vector<dna::Sequence> centers;
    std::vector<dna::Sequence> reads;
    std::vector<size_t> truth;
    for (size_t o = 0; o < origins; ++o)
        centers.push_back(randomSeq(rng, 120));
    for (size_t o = 0; o < origins; ++o) {
        for (size_t c = 0; c < copies; ++c) {
            reads.push_back(noisy(rng, centers[o], 0.01));
            truth.push_back(o);
        }
    }

    ClustererParams params;
    std::vector<Cluster> clusters = clusterReads(reads, params);
    ASSERT_EQ(clusters.size(), origins);

    // Every cluster must be pure (all members share one origin).
    for (const Cluster &cluster : clusters) {
        size_t origin = truth[cluster.members.front()];
        for (size_t member : cluster.members)
            EXPECT_EQ(truth[member], origin);
        EXPECT_EQ(cluster.size(), copies);
    }
}

TEST(ClustererTest, SortedByDecreasingSize)
{
    dnastore::Rng rng(2);
    std::vector<dna::Sequence> reads;
    dna::Sequence big = randomSeq(rng, 100);
    dna::Sequence small = randomSeq(rng, 100);
    for (int i = 0; i < 30; ++i)
        reads.push_back(noisy(rng, big, 0.01));
    for (int i = 0; i < 5; ++i)
        reads.push_back(noisy(rng, small, 0.01));

    ClustererParams params;
    std::vector<Cluster> clusters = clusterReads(reads, params);
    ASSERT_GE(clusters.size(), 2u);
    EXPECT_GE(clusters[0].size(), clusters[1].size());
    EXPECT_EQ(clusters[0].size(), 30u);
}

TEST(ClustererTest, HighNoiseStillGroupsMostReads)
{
    dnastore::Rng rng(3);
    dna::Sequence center = randomSeq(rng, 150);
    std::vector<dna::Sequence> reads;
    for (int i = 0; i < 50; ++i)
        reads.push_back(noisy(rng, center, 0.02));

    ClustererParams params;
    std::vector<Cluster> clusters = clusterReads(reads, params);
    EXPECT_GE(clusters[0].size(), 40u);
}

TEST(ClustererTest, EmptyInput)
{
    ClustererParams params;
    EXPECT_TRUE(clusterReads({}, params).empty());
}

TEST(ClustererTest, SingleRead)
{
    ClustererParams params;
    std::vector<dna::Sequence> reads = {dna::Sequence("ACGTACGTACGT")};
    std::vector<Cluster> clusters = clusterReads(reads, params);
    ASSERT_EQ(clusters.size(), 1u);
    EXPECT_EQ(clusters[0].size(), 1u);
}

TEST(ClustererTest, ZeroSignatureBands)
{
    // Degenerate config: no bands means no buckets, no candidates,
    // and every read founds its own cluster — but it must not crash.
    ClustererParams params;
    params.signatures = 0;
    std::vector<dna::Sequence> reads = {dna::Sequence("ACGTACGT"),
                                        dna::Sequence("ACGTACGT")};
    std::vector<Cluster> clusters = clusterReads(reads, params);
    ASSERT_EQ(clusters.size(), 2u);
    for (const Cluster &cluster : clusters)
        EXPECT_EQ(cluster.size(), 1u);
}

/**
 * Regression: the candidate cap must hold across signature bands.
 *
 * The construction replicates the clusterer's salt derivation and its
 * q = 1 MinHash (the signature of a read is then determined by the
 * read's base SET: min over present bases of splitMix64(base ^ salt)).
 * With m0/m1 the globally minimal bases of bands 0/1, three reads are
 * built over disjoint alphabets:
 *
 *   A over {m0, x}: shares X's band-0 bucket (both contain m0), far
 *                   from X in edit distance;
 *   B over {m1, y}: shares X's band-1 bucket only, within threshold
 *                   of X;
 *   X = B with two substitutions introducing m0 and x.
 *
 * With max_candidates = 1, X's candidate gathering must stop at A
 * (band 0). The pre-fix code broke only the inner per-band loop, so
 * band 1 still pushed B past the cap and X joined B's cluster; with
 * the cap enforced across bands X founds its own cluster.
 */
TEST(ClustererTest, CandidateCapHoldsAcrossBands)
{
    // Find a seed whose bands 0 and 1 have distinct minimal bases.
    uint64_t seed = 0;
    int m0 = 0;
    int m1 = 0;
    auto hashOf = [](int base, uint64_t salt) {
        uint64_t state = static_cast<uint64_t>(base) ^ salt;
        return splitMix64(state);
    };
    auto argmin = [&](uint64_t salt) {
        int best = 0;
        for (int base = 1; base < 4; ++base) {
            if (hashOf(base, salt) < hashOf(best, salt))
                best = base;
        }
        return best;
    };
    for (uint64_t s = 1; s < 64; ++s) {
        Rng rng = Rng::deriveStream(s, "clusterer");
        uint64_t salt0 = rng.next();
        uint64_t salt1 = rng.next();
        m0 = argmin(salt0);
        m1 = argmin(salt1);
        if (m0 != m1) {
            seed = s;
            break;
        }
    }
    ASSERT_NE(seed, 0u) << "no seed with distinct band minima";

    // x and y: the two bases outside {m0, m1}.
    std::array<int, 2> others{};
    size_t filled = 0;
    for (int base = 0; base < 4; ++base) {
        if (base != m0 && base != m1)
            others[filled++] = base;
    }
    ASSERT_EQ(filled, 2u);
    const int x = others[0];
    const int y = others[1];

    auto alternating = [](int a, int b, size_t len) {
        std::vector<dna::Base> bases(len);
        for (size_t i = 0; i < len; ++i)
            bases[i] = static_cast<dna::Base>(i % 2 ? b : a);
        return dna::Sequence(bases);
    };
    dna::Sequence read_a = alternating(m0, x, 60);
    dna::Sequence read_b = alternating(m1, y, 60);
    std::vector<dna::Base> x_bases(60);
    for (size_t i = 0; i < 60; ++i)
        x_bases[i] = static_cast<dna::Base>(i % 2 ? y : m1);
    x_bases[0] = static_cast<dna::Base>(m0);
    x_bases[1] = static_cast<dna::Base>(x);
    dna::Sequence read_x(x_bases);

    ClustererParams params;
    params.seed = seed;
    params.qgram = 1;
    params.signatures = 2;
    params.max_candidates = 1;
    params.distance_threshold = 8;
    std::vector<Cluster> clusters =
        clusterReads({read_a, read_b, read_x}, params);

    // X's only candidate is A (far away): X founds its own cluster.
    // The pre-fix overflow would have compared X against B too and
    // merged them into 2 clusters.
    ASSERT_EQ(clusters.size(), 3u);
    for (const Cluster &cluster : clusters)
        EXPECT_EQ(cluster.size(), 1u);
}

/**
 * A read within the threshold of two clusters joins the one its
 * candidates reach first. With q = 1 every read holding all four
 * bases lands in the same bucket of every band, so each band lists
 * the clusters in founding order and the first candidate is the
 * older cluster. P and Q sit 10 substitutions apart (two clusters);
 * X takes 5 of those substitutions, so it is within 8 of both.
 */
TEST(ClustererTest, ReadJoinsFirstFoundedOfTwoInRangeClusters)
{
    dnastore::Rng rng(12);
    const dna::Sequence p = randomSeq(rng, 150);
    std::string q_bases = p.str();
    std::string x_bases = p.str();
    for (size_t k = 0; k < 10; ++k) {
        const size_t pos = 10 + 13 * k;
        q_bases[pos] = q_bases[pos] == 'A' ? 'C' : 'A';
        if (k < 5)
            x_bases[pos] = q_bases[pos];
    }
    const dna::Sequence q(q_bases);
    const dna::Sequence x(x_bases);

    ClustererParams params;
    params.qgram = 1;
    params.distance_threshold = 8;
    for (bool p_first : {true, false}) {
        OnlineClusterer clusterer(params);
        const size_t first = clusterer.assign(p_first ? p : q);
        const size_t second = clusterer.assign(p_first ? q : p);
        ASSERT_NE(first, second) << "P and Q must found two clusters";
        EXPECT_EQ(clusterer.assign(x), first)
            << (p_first ? "P" : "Q") << " was founded first";
    }
}

/**
 * Regression: hot buckets must not make clustering quadratic.
 *
 * With q = 1 every read containing all four bases gets the same
 * signature in every band, so all clusters pile into one bucket per
 * band. The reads are mutually far apart, so each founds its own
 * cluster and the hot buckets grow to n entries. The pre-fix code
 * ran an O(bucket) std::find per read per band — O(n^2) overall,
 * roughly an order of magnitude slower than the membership set at
 * this size in Release and diverging quadratically from there; under
 * the sanitizer CI jobs the quadratic path blows past the 120 s
 * CTest timeout, which is what makes this guard bite. The set keeps
 * the whole run linear.
 */
TEST(ClustererTest, HotBucketStaysLinear)
{
    dnastore::Rng rng(9);
    const size_t n = 60000;
    std::vector<dna::Sequence> reads;
    reads.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        std::vector<dna::Base> bases(48);
        for (size_t j = 0; j + 4 < bases.size(); ++j)
            bases[j] = static_cast<dna::Base>(rng.nextBelow(4));
        // Guarantee all four bases so every read shares the q = 1
        // signature set.
        for (size_t j = 0; j < 4; ++j)
            bases[bases.size() - 4 + j] = static_cast<dna::Base>(j);
        reads.emplace_back(bases);
    }

    ClustererParams params;
    params.qgram = 1;
    params.max_candidates = 2;
    params.distance_threshold = 8;
    std::vector<Cluster> clusters = clusterReads(reads, params);

    // Random 44-base cores are pairwise far beyond the threshold:
    // every read founds a singleton cluster.
    EXPECT_GE(clusters.size(), n - 5);
    size_t members = 0;
    for (const Cluster &cluster : clusters)
        members += cluster.size();
    EXPECT_EQ(members, n);
}

/**
 * The signature window the decoder opens over each read (its primer
 * length at each end). Two reads that differ only in their first and
 * last 20 bases hash the same window, so their signatures are equal:
 * with one band, the second read reaches the first read's cluster
 * only through a shared bucket, and under 32 salts it always does.
 * Hashed whole, the differing ends move the minimum for some salts.
 * A read shorter than 2 * 20 + q has no window and clusters exactly
 * as with no window.
 */
TEST(ClustererTest, SignatureWindowSkipsReadEnds)
{
    constexpr size_t kSkip = 20;
    dnastore::Rng rng(13);
    ClustererParams params;
    params.signatures = 1;
    size_t whole_read_splits = 0;
    for (uint64_t seed = 1; seed <= 32; ++seed) {
        params.seed = seed;
        const dna::Sequence p = randomSeq(rng, 150);
        // Three substitutions in each end: 6 edits, within the
        // threshold of 8.
        std::string q_bases = p.str();
        for (size_t pos : {2u, 9u, 17u, 132u, 140u, 147u})
            q_bases[pos] = q_bases[pos] == 'A' ? 'C' : 'A';
        const dna::Sequence q(q_bases);

        OnlineClusterer windowed(params, kSkip);
        windowed.assign(p);
        EXPECT_EQ(windowed.assign(q), 0u) << "salt seed " << seed;
        OnlineClusterer whole(params);
        whole.assign(p);
        whole_read_splits += whole.assign(q) != 0;
    }
    EXPECT_GT(whole_read_splits, 0u);

    std::vector<dna::Sequence> short_reads;
    for (int origin = 0; origin < 4; ++origin) {
        const dna::Sequence center = randomSeq(rng, 44);
        for (int copy = 0; copy < 8; ++copy) {
            short_reads.push_back(noisy(rng, center, 0.02));
            ASSERT_LT(short_reads.back().size(),
                      2 * kSkip + ClustererParams{}.qgram);
        }
    }
    OnlineClusterer windowed(ClustererParams{}, kSkip);
    OnlineClusterer whole(ClustererParams{});
    EXPECT_EQ(windowed.assignBatch(short_reads),
              whole.assignBatch(short_reads));
    ASSERT_EQ(windowed.clusters().size(), whole.clusters().size());
    EXPECT_GT(whole.clusters().size(), 1u);
    for (size_t c = 0; c < whole.clusters().size(); ++c) {
        EXPECT_EQ(windowed.clusters()[c].members,
                  whole.clusters()[c].members);
        EXPECT_EQ(windowed.clusters()[c].representative,
                  whole.clusters()[c].representative);
    }
}

TEST(ClustererTest, ThreadPoolDoesNotChangeClusters)
{
    dnastore::Rng rng(6);
    std::vector<dna::Sequence> reads;
    dna::Sequence center_a = randomSeq(rng, 120);
    dna::Sequence center_b = randomSeq(rng, 120);
    for (int i = 0; i < 40; ++i) {
        reads.push_back(noisy(rng, center_a, 0.02));
        reads.push_back(noisy(rng, center_b, 0.02));
    }

    ClustererParams params;
    std::vector<Cluster> sequential = clusterReads(reads, params);
    for (size_t threads : {2u, 5u, 8u}) {
        ThreadPool pool(threads);
        std::vector<Cluster> parallel =
            clusterReads(reads, params, &pool);
        ASSERT_EQ(parallel.size(), sequential.size());
        for (size_t i = 0; i < parallel.size(); ++i) {
            EXPECT_EQ(parallel[i].members, sequential[i].members);
            EXPECT_EQ(parallel[i].representative,
                      sequential[i].representative);
        }
    }
}

TEST(ClustererTest, Deterministic)
{
    dnastore::Rng rng(4);
    std::vector<dna::Sequence> reads;
    for (int i = 0; i < 40; ++i)
        reads.push_back(randomSeq(rng, 80));
    ClustererParams params;
    auto a = clusterReads(reads, params);
    auto b = clusterReads(reads, params);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].members, b[i].members);
}

} // namespace
} // namespace dnastore::cluster
