#include "dna/distance.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/arena.h"
#include "common/simd.h"

namespace dnastore::dna {

namespace {

using simd::kEditRowPad;
using simd::kInf16;

/**
 * The uint16 DP kernels are exact as long as no *finite* value can
 * reach the kInf16 saturation point: cell values are bounded by
 * m + n, and the <= max_dist accept test only inspects values that
 * must stay below kInf16 to pass. Inputs beyond these bounds (never
 * produced by the decode pipeline) take the original size_t paths.
 */
bool
fitsU16(size_t m, size_t n, size_t max_dist)
{
    return max_dist < kInf16 - 1 && m < kInf16 / 2 && n < kInf16 / 2;
}

/** Copy @p s into arena scratch with kEditRowPad bytes of zero
 *  padding so full-width vector loads stay in bounds. */
const uint8_t *
paddedBytes(Arena &arena, const std::string &s)
{
    uint8_t *buf = arena.allocArray<uint8_t>(s.size() + kEditRowPad);
    std::memcpy(buf, s.data(), s.size());
    std::memset(buf + s.size(), 0, kEditRowPad);
    return buf;
}

/** Allocate one DP row of n + 2 + kEditRowPad lanes, all kInf16. */
uint16_t *
infRow(Arena &arena, size_t n)
{
    size_t lanes = n + 2 + kEditRowPad;
    uint16_t *row = arena.allocArray<uint16_t>(lanes);
    std::memset(row, 0xFF, lanes * sizeof(uint16_t));
    return row;
}

} // namespace

size_t
hammingDistance(const Sequence &a, const Sequence &b)
{
    const std::string &sa = a.str();
    const std::string &sb = b.str();
    size_t common = std::min(sa.size(), sb.size());
    size_t distance = std::max(sa.size(), sb.size()) - common;
    for (size_t i = 0; i < common; ++i) {
        if (sa[i] != sb[i])
            ++distance;
    }
    return distance;
}

size_t
levenshteinDistance(const Sequence &a, const Sequence &b)
{
    const std::string &sa = a.str();
    const std::string &sb = b.str();
    const size_t n = sb.size();
    Arena &arena = Arena::scratch();
    ArenaScope scope(arena);
    size_t *row = arena.allocArray<size_t>(n + 1);
    for (size_t j = 0; j <= n; ++j)
        row[j] = j;
    for (size_t i = 1; i <= sa.size(); ++i) {
        size_t diag = row[0];
        row[0] = i;
        for (size_t j = 1; j <= n; ++j) {
            size_t cost = (sa[i - 1] == sb[j - 1]) ? 0 : 1;
            size_t next = std::min({row[j] + 1, row[j - 1] + 1,
                                    diag + cost});
            diag = row[j];
            row[j] = next;
        }
    }
    return row[n];
}

size_t
bandedLevenshtein(const Sequence &a, const Sequence &b, size_t max_dist)
{
    const std::string &sa = a.str();
    const std::string &sb = b.str();
    const ptrdiff_t m = static_cast<ptrdiff_t>(sa.size());
    const ptrdiff_t n = static_cast<ptrdiff_t>(sb.size());
    // The alignment ends on diagonal n - m, at least |n - m| edits out.
    const ptrdiff_t target = n - m;
    if (static_cast<size_t>(std::abs(target)) > max_dist)
        return kDistanceInfinity;
    // The distance never exceeds the longer length, so a larger
    // budget cannot change the answer; capping it bounds the arrays.
    const ptrdiff_t max_e = static_cast<ptrdiff_t>(
        std::min(max_dist, std::max(sa.size(), sb.size())));

    // Diagonal transition (Ukkonen 1985; Landau & Vishkin 1989).
    // Diagonal k holds the cells (i, i + k). After pass e, row[k] is
    // the furthest i with distance(sa[0, i), sb[0, i + k)) <= e: one
    // edit from a neighbour's pass-(e-1) reach, then a free slide
    // over matching bases. Pass e visits diagonals [-e, e], clipped
    // to the matrix and to the diagonals that can still reach the
    // target diagonal within the remaining budget. That window
    // only narrows by one per pass, so each neighbour read just
    // outside it still holds its pass-(e-1) value, and cells never
    // visited — including the guard diagonals -max_e-1 and
    // max_e+1 — stay kUnreached. row[0] starts at -1 so pass 0's
    // "substitution" lands on row 0.
    constexpr ptrdiff_t kUnreached =
        std::numeric_limits<ptrdiff_t>::min() / 2;
    Arena &arena = Arena::scratch();
    ArenaScope scope(arena);
    ptrdiff_t *row =
        arena.allocArray<ptrdiff_t>(2 * max_e + 3) + max_e + 1;
    std::fill(row - max_e - 1, row + max_e + 2, kUnreached);
    row[0] = -1;
    for (ptrdiff_t e = 0; e <= max_e; ++e) {
        const ptrdiff_t slack = max_e - e;
        const ptrdiff_t k_lo = std::max({-e, -m, target - slack});
        const ptrdiff_t k_hi = std::min({e, n, target + slack});
        // row[k - 1] is overwritten before diagonal k reads it, so
        // carry its pass-(e-1) value along.
        ptrdiff_t left = row[k_lo - 1];
        for (ptrdiff_t k = k_lo; k <= k_hi; ++k) {
            const ptrdiff_t up = row[k];
            const ptrdiff_t end = std::min(m, n - k);
            // Substitution, insertion (from k - 1), deletion (from
            // k + 1); the clamp is exact because adjacent cells
            // differ by at most one.
            ptrdiff_t i = std::min(
                std::max({up + 1, left, row[k + 1] + 1}), end);
            i = slideDiagonal(sa.data(), sb.data(), i, k, end);
            left = up;
            row[k] = i;
            if (k == target && i == m)
                return static_cast<size_t>(e);
        }
    }
    return kDistanceInfinity;
}

size_t
longestCommonPrefix(const Sequence &a, const Sequence &b)
{
    size_t limit = std::min(a.size(), b.size());
    size_t i = 0;
    while (i < limit && a[i] == b[i])
        ++i;
    return i;
}

namespace {

/** Original size_t implementation, kept for inputs outside the
 *  uint16-safe bounds (see fitsU16). */
PrefixAlignment
alignPrimerToPrefixGeneric(const Sequence &primer,
                           const Sequence &template_seq,
                           size_t max_dist, size_t three_prime_window)
{
    PrefixAlignment result;
    const std::string &p = primer.str();
    const std::string &t = template_seq.str();
    const size_t m = p.size();
    const size_t n = std::min(t.size(), m + max_dist);
    if (m > n + max_dist)
        return result;

    const size_t inf = kDistanceInfinity / 2;
    std::vector<size_t> prev(n + 1, inf), curr(n + 1, inf);
    for (size_t j = 0; j <= std::min(n, max_dist); ++j)
        prev[j] = j;
    for (size_t i = 1; i <= m; ++i) {
        size_t lo = i > max_dist ? i - max_dist : 1;
        size_t hi = std::min(n, i + max_dist);
        if (lo > hi)
            return result;
        std::fill(curr.begin(), curr.end(), inf);
        if (lo == 1)
            curr[0] = i <= max_dist ? i : inf;
        for (size_t j = lo; j <= hi; ++j) {
            size_t cost = (p[i - 1] == t[j - 1]) ? 0 : 1;
            size_t best = prev[j - 1] + cost;
            best = std::min(best, prev[j] + 1);
            best = std::min(best, curr[j - 1] + 1);
            curr[j] = best;
        }
        std::swap(prev, curr);
    }

    size_t best_j = 0;
    size_t best_dist = inf;
    size_t lo = m > max_dist ? m - max_dist : 0;
    for (size_t j = lo; j <= n; ++j) {
        if (prev[j] < best_dist) {
            best_dist = prev[j];
            best_j = j;
        }
    }
    if (best_dist > max_dist)
        return result;

    result.distance = best_dist;
    result.template_consumed = best_j;
    size_t window = std::min(three_prime_window, std::min(m, best_j));
    size_t mismatches = 0;
    for (size_t k = 1; k <= window; ++k) {
        if (p[m - k] != t[best_j - k])
            ++mismatches;
    }
    result.three_prime_mismatches = mismatches;
    return result;
}

} // namespace

PrefixAlignment
alignPrimerToPrefix(const Sequence &primer, const Sequence &template_seq,
                    size_t max_dist, size_t three_prime_window)
{
    PrefixAlignment result;
    const std::string &p = primer.str();
    const std::string &t = template_seq.str();
    const size_t m = p.size();
    // The primer must land within max_dist indels of its own length.
    const size_t n = std::min(t.size(), m + max_dist);
    if (m > n + max_dist)
        return result;
    if (!fitsU16(m, n, max_dist))
        return alignPrimerToPrefixGeneric(primer, template_seq,
                                          max_dist,
                                          three_prime_window);

    // Both strings anchored at position 0: row 0 is the cost of
    // skipping leading template bases (deletions from the template).
    Arena &arena = Arena::scratch();
    ArenaScope scope(arena);
    const uint8_t *tb = paddedBytes(arena, t);
    uint16_t *prev = infRow(arena, n);
    uint16_t *curr = infRow(arena, n);
    for (size_t j = 0; j <= std::min(n, max_dist); ++j)
        prev[j] = static_cast<uint16_t>(j);
    const simd::Kernels &kernels = simd::kernels();
    for (size_t i = 1; i <= m; ++i) {
        size_t lo = i > max_dist ? i - max_dist : 1;
        size_t hi = std::min(n, i + max_dist);
        if (lo > hi)
            return result;
        uint16_t edge = (lo == 1 && i <= max_dist)
                            ? static_cast<uint16_t>(i)
                            : kInf16;
        curr[lo - 1] = edge;
        kernels.edit_row(tb, static_cast<uint8_t>(p[i - 1]), prev,
                         curr, lo, hi, edge);
        std::swap(prev, curr);
    }

    // Best end position in the template (template suffix is free).
    size_t best_j = 0;
    size_t best_dist = kInf16;
    size_t lo = m > max_dist ? m - max_dist : 0;
    for (size_t j = lo; j <= n; ++j) {
        if (prev[j] < best_dist) {
            best_dist = prev[j];
            best_j = j;
        }
    }
    if (best_dist > max_dist)
        return result;

    result.distance = best_dist;
    result.template_consumed = best_j;

    // Approximate 3'-end mismatch count: compare the primer tail with
    // the template bases that end at the alignment endpoint.
    size_t window = std::min(three_prime_window, std::min(m, best_j));
    size_t mismatches = 0;
    for (size_t k = 1; k <= window; ++k) {
        if (p[m - k] != t[best_j - k])
            ++mismatches;
    }
    result.three_prime_mismatches = mismatches;
    return result;
}

namespace {

/**
 * The banded DP of alignPrimerWeighted(), rows [@p first, m], over
 * rows stored @p stride doubles apart; rows below @p first must
 * already hold this primer's DP over this template's window. Returns
 * the best end over row m, and sets @p valid to the number of rows,
 * from row 0, that now hold the DP.
 *
 * Gap-weight convention: every gap is charged at the weight of the
 * primer position it sits at. A template base consumed before the
 * primer's 5' end (row 0) or under primer base i-1 (rows i >= 1, the
 * curr[j-1] transition) is an opening/extra template base at that
 * primer position; a bulged-out primer base i-1 (the prev[j]
 * transition) likewise charges its own position. Row 0 therefore uses
 * weight(0) and every row i >= 1 uses weight(i - 1) for both gap
 * kinds — pinned literally by distance_test's WeightedGapConvention
 * tests.
 *
 * This stays scalar double arithmetic: reassociating the float sums
 * (as a vector prefix-min would) could move accepted primers by an
 * ulp, breaking the golden outputs.
 */
WeightedAlignment
weightedRows(const std::string &p, const char *t, size_t n, size_t band,
             size_t three_prime_window, double three_prime_factor,
             double gap_factor, double *rows, size_t stride,
             size_t first, size_t &valid)
{
    const size_t m = p.size();
    auto weight = [&](size_t primer_pos) {
        return primer_pos + three_prime_window >= m
                   ? three_prime_factor
                   : 1.0;
    };

    // Row i writes cells [lo-1, hi+1] (the two edge cells infinite
    // unless cell 0 is a real cost), and row i+1 reads no cell
    // outside that span, so no row needs a fill. Row 0's span is
    // [0, min(n, band) + 1]. The stride leaves room for cell n + 1.
    if (first == 0) {
        const size_t end = std::min(n, band);
        for (size_t j = 0; j <= end; ++j)
            rows[j] = static_cast<double>(j) * gap_factor * weight(0);
        rows[end + 1] = kWeightInfinity;
        first = 1;
    }
    for (size_t i = first; i <= m; ++i) {
        const double *prev = rows + (i - 1) * stride;
        double *curr = rows + i * stride;
        size_t lo = i > band ? i - band : 1;
        size_t hi = std::min(n, i + band);
        if (lo > hi) {
            valid = i;
            return WeightedAlignment{};
        }
        if (lo == 1 && i <= band) {
            curr[0] = prev[0] == kWeightInfinity
                          ? kWeightInfinity
                          : prev[0] + gap_factor * weight(i - 1);
        } else {
            curr[lo - 1] = kWeightInfinity;
        }
        curr[hi + 1] = kWeightInfinity;
        for (size_t j = lo; j <= hi; ++j) {
            double sub_cost =
                p[i - 1] == t[j - 1] ? 0.0 : weight(i - 1);
            double best = prev[j - 1] + sub_cost;
            // Primer base i-1 bulged out (no template partner).
            best = std::min(best, prev[j] + gap_factor * weight(i - 1));
            // Extra template base under primer position i-1.
            best = std::min(best,
                            curr[j - 1] + gap_factor * weight(i - 1));
            curr[j] = best;
        }
    }
    valid = m + 1;

    WeightedAlignment result;
    const double *last = rows + m * stride;
    for (size_t j = m > band ? m - band : 0; j <= n; ++j) {
        if (last[j] < result.cost) {
            result.cost = last[j];
            result.template_consumed = j;
        }
    }
    return result;
}

} // namespace

WeightedAlignment
alignPrimerWeighted(const Sequence &primer, const Sequence &template_seq,
                    size_t band, size_t three_prime_window,
                    double three_prime_factor, double gap_factor)
{
    const std::string &p = primer.str();
    const size_t m = p.size();
    const size_t n = std::min(template_seq.size(), m + band);
    if (m > n + band)
        return WeightedAlignment{};
    Arena &arena = Arena::scratch();
    ArenaScope scope(arena);
    const size_t stride = n + 2;
    double *rows = arena.allocArray<double>((m + 1) * stride);
    size_t valid = 0;
    return weightedRows(p, template_seq.str().data(), n, band,
                        three_prime_window, three_prime_factor,
                        gap_factor, rows, stride, 0, valid);
}

PrimerAligner::PrimerAligner(const Sequence &primer, size_t band,
                             size_t three_prime_window,
                             double three_prime_factor,
                             double gap_factor)
    : primer_(primer.str()), band_(band),
      three_prime_window_(three_prime_window),
      three_prime_factor_(three_prime_factor), gap_factor_(gap_factor),
      stride_(primer_.size() + band + 2),
      rows_((primer_.size() + 1) * stride_)
{}

WeightedAlignment
PrimerAligner::align(const Sequence &template_seq)
{
    const size_t m = primer_.size();
    const size_t n = std::min(template_seq.size(), m + band_);
    if (m > n + band_)
        return WeightedAlignment{};
    const std::string &t = template_seq.str();
    const size_t last_n = last_.size();

    // Row i reads template bases [0, E(i)), E(i) = min(n, i + band),
    // and E(i) is its last cell. It is the last template's row when
    // each row up to it has the same E for both templates, inside
    // their common prefix (common <= min(n, last_n)):
    //  - for the same window (common == n == last_n), every valid row;
    //  - otherwise exactly the rows with i + band <= common. There E(i)
    //    is i + band for both. Row common - band + 1 reads base
    //    `common`, which differs, or ends one window and not the other.
    const size_t common = static_cast<size_t>(slideDiagonal(
        last_.data(), t.data(), 0, 0,
        static_cast<ptrdiff_t>(std::min(last_n, n))));
    size_t first = 0;
    if (n == last_n && common == n)
        first = valid_rows_;
    else if (common >= band_)
        first = std::min(valid_rows_, common - band_ + 1);

    last_.assign(t, 0, n);
    return weightedRows(primer_, t.data(), n, band_, three_prime_window_,
                        three_prime_factor_, gap_factor_, rows_.data(),
                        stride_, first, valid_rows_);
}

} // namespace dnastore::dna
