#include "consensus/bma.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/arena.h"
#include "common/error.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "dna/distance.h"

namespace dnastore::consensus {

namespace {

using simd::kEditRowPad;
using simd::kInf16;

/**
 * Borrowed view of a member read, optionally traversed 3'->5'. The
 * backward BMA pass runs on these instead of materializing reversed
 * copies of every read, so a cluster's reconstruction allocates no
 * per-read strings.
 */
struct ReadView
{
    const char *data;
    size_t size;
    bool rev;

    char
    at(size_t k) const
    {
        return rev ? data[size - 1 - k] : data[k];
    }
};

/** One-sided BMA over views; writes expected_length chars to out. */
void
bmaForwardImpl(const ReadView *reads, size_t count,
               size_t expected_length, const BmaParams &params,
               Arena &arena, char *out)
{
    fatalIf(count == 0, "bmaForward: no reads");
    ArenaScope scope(arena);
    size_t *cursor = arena.allocArray<size_t>(count);
    // A read that disagreed at the previous position without
    // insertion evidence is "pending": the error class (substitution
    // vs deletion in the read) is decided one step later, when the
    // next majority is known.
    uint8_t *pending = arena.allocArray<uint8_t>(count);
    std::fill(cursor, cursor + count, size_t{0});
    std::fill(pending, pending + count, uint8_t{0});

    for (size_t j = 0; j < expected_length; ++j) {
        // Majority vote among live cursors.
        std::array<size_t, 4> votes = {0, 0, 0, 0};
        for (size_t i = 0; i < count; ++i) {
            if (cursor[i] < reads[i].size)
                ++votes[static_cast<size_t>(
                    dna::charToBase(reads[i].at(cursor[i])))];
        }
        size_t best = 0;
        for (size_t b = 1; b < 4; ++b) {
            if (votes[b] > votes[best])
                best = b;
        }
        dna::Base majority = static_cast<dna::Base>(best);
        out[j] = dna::baseToChar(majority);

        // Re-synchronize cursors.
        for (size_t i = 0; i < count; ++i) {
            if (cursor[i] >= reads[i].size)
                continue;
            const ReadView &read = reads[i];

            if (pending[i]) {
                pending[i] = 0;
                // The read disagreed at the previous position; the
                // error class is decided now that the next majority
                // is known:
                //   read[p]   == c -> deletion in the read (the
                //                     disputed base never existed);
                //   read[p+1] == c -> substitution (skip bad base);
                //   read[p+2] == c -> insertion (skip inserted base
                //                     and the disputed one).
                bool resolved = false;
                for (size_t k = 0; k <= params.lookahead; ++k) {
                    if (cursor[i] + k < read.size &&
                        dna::charToBase(read.at(cursor[i] + k)) ==
                            majority) {
                        cursor[i] += k + 1;
                        resolved = true;
                        break;
                    }
                }
                if (!resolved) {
                    // Two errors in a row: resign to advancing.
                    ++cursor[i];
                }
                continue;
            }

            if (dna::charToBase(read.at(cursor[i])) == majority) {
                ++cursor[i];
                continue;
            }
            pending[i] = 1;  // classify at the next position
        }
    }
}

/**
 * Scalar reference for one read's refinement votes — also the
 * fallback for inputs outside the uint16-safe bounds of the SIMD
 * path. The kernel path below must match it cell for cell.
 */
void
refineVotesGeneric(const char *draft, size_t n, const std::string &read,
                   size_t band, size_t *votes)
{
    const size_t m = read.size();
    const size_t inf = SIZE_MAX / 2;
    // Banded global alignment, draft rows x read columns.
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
            size_t del = cost[i - 1][j] + 1;  // draft base unread
            size_t ins = cost[i][j - 1] + 1;  // extra read base
            cost[i][j] = std::min({sub, del, ins});
        }
    }
    // Backtrace, voting draft positions matched to read bases.
    size_t i = n, j = m;
    if (cost[n][m] >= inf)
        return;  // read did not fit in the band; skip it
    while (i > 0 && j > 0) {
        size_t sub = cost[i - 1][j - 1] +
                     (draft[i - 1] == read[j - 1] ? 0 : 1);
        if (cost[i][j] == sub) {
            ++votes[(i - 1) * 4 +
                    static_cast<size_t>(dna::charToBase(read[j - 1]))];
            --i;
            --j;
        } else if (cost[i][j] == cost[i - 1][j] + 1) {
            --i;  // draft base deleted in the read: no vote
        } else {
            --j;  // inserted read base: no draft position
        }
    }
}

/**
 * One read's refinement votes by banded DP: the SIMD edit_row kernel
 * fills a flat uint16 matrix in the arena, and the backtrace votes
 * each draft position matched to a read base. The uint16 saturating
 * matrix is observably identical to refineVotesGeneric: the
 * backtrace only walks finite cells, and saturated cells compare
 * "not on the path" exactly like size_t infinity does. Requires
 * n, m < kInf16 / 2.
 */
void
refineVotesBanded(const char *draft, size_t n, const std::string &read,
                  size_t band, Arena &arena, size_t *votes)
{
    const size_t m = read.size();
    ArenaScope scope(arena);
    // Full (n+1)-row matrix (the backtrace needs every row); rows are
    // stride-spaced so each kernel call can write its kEditRowPad
    // infinity tail in bounds. memset 0xFF fills every untouched cell
    // with kInf16, the uint16 analog of the reference matrix's
    // infinity fill.
    const size_t stride = m + 2 + kEditRowPad;
    uint16_t *cost = arena.allocArray<uint16_t>((n + 1) * stride);
    std::memset(cost, 0xFF, (n + 1) * stride * sizeof(uint16_t));
    uint8_t *rb = arena.allocArray<uint8_t>(m + kEditRowPad);
    std::memcpy(rb, read.data(), m);
    std::memset(rb + m, 0, kEditRowPad);
    const simd::Kernels &kernels = simd::kernels();

    cost[0] = 0;
    for (size_t j = 1; j <= std::min(m, band); ++j)
        cost[j] = static_cast<uint16_t>(j);
    for (size_t i = 1; i <= n; ++i) {
        size_t lo = i > band ? i - band : 1;
        size_t hi = std::min(m, i + band);
        if (lo > hi)
            break;  // band left the read; later rows stay inf
        uint16_t *prev = cost + (i - 1) * stride;
        uint16_t *curr = cost + i * stride;
        uint16_t edge = (lo == 1 && i <= band) ? static_cast<uint16_t>(i)
                                               : kInf16;
        curr[lo - 1] = edge;
        kernels.edit_row(rb, static_cast<uint8_t>(draft[i - 1]), prev,
                         curr, lo, hi, edge);
    }

    // Backtrace, voting draft positions matched to read bases.
    // uint32 arithmetic: a saturated (kInf16) predecessor plus its
    // step cost exceeds any finite cell, so it can never claim the
    // path — matching the size_t reference.
    size_t i = n, j = m;
    if (cost[n * stride + m] >= kInf16)
        return;  // read did not fit in the band; skip it
    while (i > 0 && j > 0) {
        const uint16_t *row = cost + i * stride;
        const uint16_t *prow = cost + (i - 1) * stride;
        uint32_t here = row[j];
        uint32_t sub = uint32_t{prow[j - 1]} +
                       (draft[i - 1] == read[j - 1] ? 0u : 1u);
        if (here == sub) {
            ++votes[(i - 1) * 4 +
                    static_cast<size_t>(dna::charToBase(read[j - 1]))];
            --i;
            --j;
        } else if (here == uint32_t{prow[j]} + 1) {
            --i;  // draft base deleted in the read: no vote
        } else {
            --j;  // inserted read base: no draft position
        }
    }
}

/**
 * One read's refinement votes by diagonal transition (Ukkonen 1985;
 * Landau & Vishkin 1989), when its edit distance d to the draft is
 * at most @p band; returns false, voting nothing, otherwise.
 *
 * Diagonal k holds the cells (i, i + k), draft row i against read
 * column i + k. Pass e stores reach[e][k], the furthest row with
 * D(i, i + k) <= e: one edit from a neighbour's pass-(e-1) reach,
 * then a slide over matching bases. Costs never decrease along a
 * diagonal, so any cell's cost is D(i, i + k) = min{e : reach[e][k]
 * >= i}, and the work grows with d instead of with n * band.
 *
 * The backtrace takes the DP's tie order (diagonal, then deleted
 * draft base, then inserted read base) and asks reach[c-1] whether a
 * neighbour costs c - 1: a match is always diagonal, and at a
 * mismatch the neighbours cost c - 1 or more. It matches the banded
 * DP vote for vote: a backtrace from a cell of cost d <= band only
 * visits and compares neighbours of cost <= d, which lie on
 * diagonals |k| <= d, where the banded and the unbanded DP agree.
 */
bool
refineVotesByDiagonals(const char *draft, size_t n,
                       const std::string &read, size_t band,
                       Arena &arena, size_t *votes)
{
    const char *rd = read.data();
    const ptrdiff_t rows = static_cast<ptrdiff_t>(n);
    const ptrdiff_t cols = static_cast<ptrdiff_t>(read.size());
    // The alignment ends on diagonal cols - rows, at least that many
    // edits out; the distance never exceeds the longer length.
    const ptrdiff_t target = cols - rows;
    if (static_cast<size_t>(std::abs(target)) > band)
        return false;
    const ptrdiff_t max_e = static_cast<ptrdiff_t>(
        std::min(band, std::max(n, read.size())));

    // reach[e] spans diagonals [-e - 2, e + 2]: pass e + 1 and the
    // backtrace read one diagonal beyond [-e - 1, e + 1], and every
    // cell pass e did not visit (off the matrix, or |k| > e) stays
    // kUnreached. Rows are allocated pass by pass, so a read costs
    // O(d^2) scratch whatever the band.
    constexpr ptrdiff_t kUnreached =
        std::numeric_limits<ptrdiff_t>::min() / 2;
    ArenaScope scope(arena);
    ptrdiff_t **reach =
        arena.allocArray<ptrdiff_t *>(static_cast<size_t>(max_e + 1));

    ptrdiff_t d = -1;
    for (ptrdiff_t e = 0; e <= max_e && d < 0; ++e) {
        ptrdiff_t *row =
            arena.allocArray<ptrdiff_t>(static_cast<size_t>(2 * e + 5)) +
            e + 2;
        std::fill(row - e - 2, row + e + 3, kUnreached);
        reach[e] = row;
        const ptrdiff_t k_lo = std::max(-e, -rows);
        const ptrdiff_t k_hi = std::min(e, cols);
        for (ptrdiff_t k = k_lo; k <= k_hi; ++k) {
            const ptrdiff_t end = std::min(rows, cols - k);
            ptrdiff_t i = 0;  // pass 0 starts at the origin
            if (e > 0) {
                // Substitution, inserted read base (from k - 1),
                // deleted draft base (from k + 1); the clamp is exact
                // because adjacent cells differ by at most one.
                const ptrdiff_t *prev = reach[e - 1];
                i = std::min(std::max({prev[k] + 1, prev[k - 1],
                                       prev[k + 1] + 1}),
                             end);
            }
            row[k] = dna::slideDiagonal(draft, rd, i, k, end);
        }
        if (target >= k_lo && target <= k_hi && row[target] == rows)
            d = e;
    }
    if (d < 0)
        return false;

    ptrdiff_t i = rows, j = cols, c = d;
    while (i > 0 && j > 0) {
        const char base = rd[j - 1];
        if (draft[i - 1] != base) {
            // The step costs one edit: take the first neighbour, in
            // tie order, that costs c - 1.
            const ptrdiff_t *prev = reach[--c];
            const ptrdiff_t k = j - i;
            if (prev[k] < i - 1) {  // not a substitution
                if (prev[k + 1] >= i - 1)
                    --i;  // draft base deleted in the read: no vote
                else
                    --j;  // inserted read base: no draft position
                continue;
            }
        }
        // A Sequence holds only bases, so the vote's base needs no
        // check.
        ++votes[(i - 1) * 4 + dna::baseCode(base)];
        --i;
        --j;
    }
    return true;
}

/**
 * One refinement pass over the draft: align every read, collect
 * per-position votes, and write the majority draft to out (n chars).
 * Reads within @p band edits of the draft align by diagonal
 * transition; the rest take the banded DP (refineVotesGeneric for
 * inputs beyond the uint16 bounds), which votes nothing when (n, m)
 * lies outside the band. Returns the number of reads whose distance
 * to the draft exceeded the band.
 */
size_t
refineDraftImpl(const char *draft, size_t n,
                const dna::Sequence *const *reads, size_t count,
                size_t band, Arena &arena, char *out)
{
    ArenaScope scope(arena);
    // votes[j * 4 + b]: aligned votes for base b at draft position j.
    size_t *votes = arena.allocArray<size_t>(n * 4);
    std::memset(votes, 0, n * 4 * sizeof(size_t));

    size_t fallbacks = 0;
    for (size_t rd = 0; rd < count; ++rd) {
        const std::string &read = reads[rd]->str();
        const size_t m = read.size();
        if (refineVotesByDiagonals(draft, n, read, band, arena, votes))
            continue;
        ++fallbacks;
        if (std::max(n, m) - std::min(n, m) > band)
            continue;  // (n, m) is outside the band: no votes
        if (n >= kInf16 / 2 || m >= kInf16 / 2)
            refineVotesGeneric(draft, n, read, band, votes);
        else
            refineVotesBanded(draft, n, read, band, arena, votes);
    }

    for (size_t j = 0; j < n; ++j) {
        size_t best = static_cast<size_t>(dna::charToBase(draft[j]));
        size_t best_votes = votes[j * 4 + best];
        for (size_t b = 0; b < 4; ++b) {
            if (votes[j * 4 + b] > best_votes) {
                best = b;
                best_votes = votes[j * 4 + b];
            }
        }
        out[j] = dna::baseToChar(static_cast<dna::Base>(best));
    }
    return fallbacks;
}

/** Double-sided BMA + refinement over member pointers, all scratch
 *  (views, pass outputs, alignment tables) drawn from the arena.
 *  Adds each refinement pass's DP fallbacks to @p refine_fallbacks. */
dna::Sequence
bmaDoubleSidedImpl(const dna::Sequence *const *members, size_t count,
                   size_t expected_length, const BmaParams &params,
                   Arena &arena, size_t &refine_fallbacks)
{
    ArenaScope scope(arena);
    ReadView *fwd = arena.allocArray<ReadView>(count);
    ReadView *bwd = arena.allocArray<ReadView>(count);
    for (size_t i = 0; i < count; ++i) {
        fwd[i] = ReadView{members[i]->str().data(),
                          members[i]->size(), false};
        bwd[i] = ReadView{fwd[i].data, fwd[i].size, true};
    }
    // Splice: anchored-end halves from each pass (the backward pass
    // reconstructs the reversed strand, so its half is read from the
    // far end). Each pass runs only to the splice point, which is
    // exact: a pass writes position j once, at step j, from cursor
    // state that only the steps before j built, so a shorter pass is
    // a prefix of a longer one.
    const size_t half = expected_length / 2 + expected_length % 2;
    const size_t tail = expected_length - half;
    char *spliced = arena.allocArray<char>(expected_length);
    char *bout = arena.allocArray<char>(tail);
    bmaForwardImpl(fwd, count, half, params, arena, spliced);
    bmaForwardImpl(bwd, count, tail, params, arena, bout);
    for (size_t j = 0; j < tail; ++j)
        spliced[expected_length - 1 - j] = bout[j];

    // Alignment-refinement passes repair any position where the BMA
    // cursors desynchronized.
    char *refined = arena.allocArray<char>(expected_length);
    for (size_t pass = 0; pass < params.refine_iterations; ++pass) {
        refine_fallbacks +=
            refineDraftImpl(spliced, expected_length, members, count,
                            params.refine_band, arena, refined);
        if (std::memcmp(refined, spliced, expected_length) == 0)
            break;
        std::swap(spliced, refined);
    }
    return dna::Sequence(std::string(spliced, expected_length));
}

} // namespace

dna::Sequence
bmaForward(const std::vector<dna::Sequence> &reads,
           size_t expected_length, const BmaParams &params)
{
    fatalIf(reads.empty(), "bmaForward: no reads");
    Arena &arena = Arena::scratch();
    ArenaScope scope(arena);
    ReadView *views = arena.allocArray<ReadView>(reads.size());
    for (size_t i = 0; i < reads.size(); ++i)
        views[i] =
            ReadView{reads[i].str().data(), reads[i].size(), false};
    char *out = arena.allocArray<char>(expected_length);
    bmaForwardImpl(views, reads.size(), expected_length, params,
                   arena, out);
    return dna::Sequence(std::string(out, expected_length));
}

dna::Sequence
refineDraft(const dna::Sequence &draft,
            const std::vector<dna::Sequence> &reads, size_t band)
{
    const size_t n = draft.size();
    if (n == 0)
        return draft;
    Arena &arena = Arena::scratch();
    ArenaScope scope(arena);
    const dna::Sequence **ptrs =
        arena.allocArray<const dna::Sequence *>(reads.size());
    for (size_t i = 0; i < reads.size(); ++i)
        ptrs[i] = &reads[i];
    char *out = arena.allocArray<char>(n);
    refineDraftImpl(draft.str().data(), n, ptrs, reads.size(), band,
                    arena, out);
    return dna::Sequence(std::string(out, n));
}

dna::Sequence
bmaDoubleSided(const std::vector<dna::Sequence> &reads,
               size_t expected_length, const BmaParams &params)
{
    Arena &arena = Arena::scratch();
    ArenaScope scope(arena);
    const dna::Sequence **ptrs =
        arena.allocArray<const dna::Sequence *>(reads.size());
    for (size_t i = 0; i < reads.size(); ++i)
        ptrs[i] = &reads[i];
    size_t refine_fallbacks = 0;
    return bmaDoubleSidedImpl(ptrs, reads.size(), expected_length,
                              params, arena, refine_fallbacks);
}

std::vector<dna::Sequence>
bmaDoubleSidedBatch(const std::vector<dna::Sequence> &reads,
                    const std::vector<std::vector<size_t>> &clusters,
                    size_t expected_length, const BmaParams &params,
                    ThreadPool *pool, size_t *refine_fallbacks)
{
    std::vector<dna::Sequence> out(clusters.size());
    std::vector<size_t> fallbacks(clusters.size(), 0);
    parallelFor(pool, clusters.size(), [&](size_t i) {
        if (clusters[i].empty())
            return;
        // Gather member *pointers* (not copies) into this worker's
        // arena; the reconstruction reads them in place.
        Arena &arena = Arena::scratch();
        ArenaScope scope(arena);
        const dna::Sequence **members =
            arena.allocArray<const dna::Sequence *>(
                clusters[i].size());
        for (size_t k = 0; k < clusters[i].size(); ++k)
            members[k] = &reads[clusters[i][k]];
        out[i] = bmaDoubleSidedImpl(members, clusters[i].size(),
                                    expected_length, params, arena,
                                    fallbacks[i]);
    });
    if (refine_fallbacks != nullptr) {
        *refine_fallbacks = 0;
        for (size_t count : fallbacks)
            *refine_fallbacks += count;
    }
    return out;
}

} // namespace dnastore::consensus
