/**
 * @file
 * SSE4.2 kernels (8 uint16 lanes / 16 byte lanes). This translation
 * unit is compiled with -msse4.2 and its symbols are only reachable
 * through the SSE4.2 and AVX2 tables, after a cpuSupports() check
 * that requires SSE4.2 for both.
 *
 * Every function must produce bit-identical results to the scalar
 * reference in simd_kernels_scalar.cc (pinned by
 * tests/simd_kernels_test.cc).
 */

#if defined(__x86_64__) || defined(__i386__)

#include <algorithm>

#include <immintrin.h>

#include "common/simd_kernels.h"

namespace dnastore::simd::detail {

namespace {

/** masks16[v][l] = 0xFFFF for lanes l >= v: ORed in to force the
 *  invalid tail lanes of a block to "infinity". */
alignas(16) constexpr uint16_t kTailMask[9][8] = {
    {0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF},
    {0, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF},
    {0, 0, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF},
    {0, 0, 0, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF},
    {0, 0, 0, 0, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF},
    {0, 0, 0, 0, 0, 0xFFFF, 0xFFFF, 0xFFFF},
    {0, 0, 0, 0, 0, 0, 0xFFFF, 0xFFFF},
    {0, 0, 0, 0, 0, 0, 0, 0xFFFF},
    {0, 0, 0, 0, 0, 0, 0, 0},
};

/** headMask<K>: 0xFFFF in lanes [0, K) — the lanes a left-shift by K
 *  vacated, which must read as "infinity" for the prefix-min. */
template <int K>
__m128i
headMask()
{
    alignas(16) static constexpr uint16_t mask[8] = {
        0xFFFF * (0 < K), 0xFFFF * (1 < K), 0xFFFF * (2 < K),
        0xFFFF * (3 < K), 0xFFFF * (4 < K), 0xFFFF * (5 < K),
        0xFFFF * (6 < K), 0xFFFF * (7 < K),
    };
    return _mm_load_si128(reinterpret_cast<const __m128i *>(mask));
}

/** Shift left by K uint16 lanes, shifting "infinity" in. */
template <int K>
__m128i
shiftLanesInf(__m128i v)
{
    return _mm_or_si128(_mm_slli_si128(v, 2 * K), headMask<K>());
}

} // namespace

uint16_t
editRowSse42(const uint8_t *b, uint8_t a_ch, const uint16_t *prev,
             uint16_t *curr, size_t lo, size_t hi, uint16_t carry_in)
{
    const __m128i vinf = _mm_set1_epi16(-1);
    const __m128i vone = _mm_set1_epi16(1);
    const __m128i ramp = _mm_setr_epi16(1, 2, 3, 4, 5, 6, 7, 8);
    const __m128i a_splat =
        _mm_set1_epi8(static_cast<char>(a_ch));
    uint16_t carry = carry_in;
    __m128i vrowmin = vinf;
    for (size_t j0 = lo; j0 <= hi; j0 += 8) {
        const size_t valid = std::min<size_t>(8, hi - j0 + 1);
        __m128i bch = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(b + j0 - 1));
        __m128i eq8 = _mm_cmpeq_epi8(bch, a_splat);
        // 0xFFFF where equal; +1 turns that into cost 0/1.
        __m128i cost =
            _mm_add_epi16(_mm_unpacklo_epi8(eq8, eq8), vone);
        __m128i pm1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(prev + j0 - 1));
        __m128i p0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(prev + j0));
        __m128i t = _mm_min_epu16(_mm_adds_epu16(pm1, cost),
                                  _mm_adds_epu16(p0, vone));
        // In-register prefix-min with +1 per lane of distance, then
        // the carry from the lanes left of this block.
        t = _mm_min_epu16(
            t, _mm_adds_epu16(shiftLanesInf<1>(t), _mm_set1_epi16(1)));
        t = _mm_min_epu16(
            t, _mm_adds_epu16(shiftLanesInf<2>(t), _mm_set1_epi16(2)));
        t = _mm_min_epu16(
            t, _mm_adds_epu16(shiftLanesInf<4>(t), _mm_set1_epi16(4)));
        t = _mm_min_epu16(
            t, _mm_adds_epu16(
                   _mm_set1_epi16(static_cast<short>(carry)), ramp));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(curr + j0), t);
        __m128i masked = _mm_or_si128(
            t, _mm_load_si128(reinterpret_cast<const __m128i *>(
                   kTailMask[valid])));
        vrowmin = _mm_min_epu16(vrowmin, masked);
        carry = static_cast<uint16_t>(_mm_extract_epi16(t, 7));
    }
    // Restore the pad lanes the full-vector stores clobbered.
    _mm_storeu_si128(reinterpret_cast<__m128i *>(curr + hi + 1), vinf);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(curr + hi + 9), vinf);
    return static_cast<uint16_t>(
        _mm_extract_epi16(_mm_minpos_epu16(vrowmin), 0));
}

void
gf16SyndromesSse42(const uint8_t *const *cols, size_t ncols,
                   size_t parity, size_t rows,
                   const uint8_t *mul_tables, uint8_t *out)
{
    const size_t full = rows & ~size_t{15};
    for (size_t s = 0; s < parity; ++s) {
        const __m128i tbl = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(mul_tables + s * 16));
        const uint8_t *tbl8 = mul_tables + s * 16;
        uint8_t *dst = out + s * rows;
        for (size_t r = 0; r < full; r += 16) {
            __m128i acc = _mm_setzero_si128();
            for (size_t c = 0; c < ncols; ++c) {
                __m128i col = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(cols[c] + r));
                acc = _mm_xor_si128(_mm_shuffle_epi8(tbl, acc), col);
            }
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + r),
                             acc);
        }
        for (size_t r = full; r < rows; ++r) {
            uint8_t acc = 0;
            for (size_t c = 0; c < ncols; ++c)
                acc = tbl8[acc] ^ cols[c][r];
            dst[r] = acc;
        }
    }
}

} // namespace dnastore::simd::detail

#endif // x86
