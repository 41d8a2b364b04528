/**
 * @file
 * Portable scalar reference kernels. These define the semantics the
 * vector implementations must reproduce bit-for-bit. They make up
 * the scalar table, and the other tables use one wherever no vector
 * path beats it (see simd.cc).
 */

#include <algorithm>

#include "common/simd_kernels.h"

namespace dnastore::simd::detail {

namespace {

uint16_t
addSat(uint16_t a, uint16_t b)
{
    uint32_t sum = static_cast<uint32_t>(a) + b;
    return sum > kInf16 ? kInf16 : static_cast<uint16_t>(sum);
}

/** Same mix as dnastore::splitMix64 (common/rng.cc). */
uint64_t
mix64(uint64_t state)
{
    uint64_t z = state + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

uint16_t
editRowScalar(const uint8_t *b, uint8_t a_ch, const uint16_t *prev,
              uint16_t *curr, size_t lo, size_t hi, uint16_t carry_in)
{
    uint16_t left = carry_in;
    uint16_t row_min = kInf16;
    for (size_t j = lo; j <= hi; ++j) {
        uint16_t cost = (a_ch == b[j - 1]) ? 0 : 1;
        uint16_t best = addSat(prev[j - 1], cost);
        best = std::min(best, addSat(prev[j], 1));
        best = std::min(best, addSat(left, 1));
        curr[j] = best;
        left = best;
        row_min = std::min(row_min, best);
    }
    // Uniform buffer contract with the vector paths: the pad lanes
    // past hi always read as "infinity" afterwards.
    for (size_t j = hi + 1; j <= hi + kEditRowPad; ++j)
        curr[j] = kInf16;
    return row_min;
}

void
minhashScalar(const uint8_t *bases, size_t len, size_t q, uint64_t mask,
              const uint64_t *salts, size_t num_salts, uint64_t *out)
{
    for (size_t s = 0; s < num_salts; ++s)
        out[s] = UINT64_MAX;
    uint64_t packed = 0;
    for (size_t i = 0; i < len; ++i) {
        packed = ((packed << 2) | bases[i]) & mask;
        if (i + 1 < q)
            continue;
        for (size_t s = 0; s < num_salts; ++s)
            out[s] = std::min(out[s], mix64(packed ^ salts[s]));
    }
}

void
gf16SyndromesScalar(const uint8_t *const *cols, size_t ncols,
                    size_t parity, size_t rows,
                    const uint8_t *mul_tables, uint8_t *out)
{
    for (size_t s = 0; s < parity; ++s) {
        const uint8_t *tbl = mul_tables + s * 16;
        uint8_t *dst = out + s * rows;
        std::fill(dst, dst + rows, uint8_t{0});
        for (size_t c = 0; c < ncols; ++c) {
            const uint8_t *col = cols[c];
            for (size_t r = 0; r < rows; ++r)
                dst[r] = tbl[dst[r]] ^ col[r];
        }
    }
}

} // namespace dnastore::simd::detail
