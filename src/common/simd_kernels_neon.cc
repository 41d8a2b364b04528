/**
 * @file
 * NEON kernels for aarch64 (8 uint16 lanes / 16 byte lanes). NEON is
 * baseline on aarch64 so no special compile flags are needed; the
 * table is still selected through the runtime dispatcher so
 * DNASTORE_FORCE_ISA=scalar works there too. Must stay bit-identical
 * to the scalar reference (tests/simd_kernels_test.cc).
 */

#if defined(__aarch64__)

#include <algorithm>

#include <arm_neon.h>

#include "common/simd_kernels.h"

namespace dnastore::simd::detail {

namespace {

/** kTailMask[v][l] = 0xFFFF for lanes l >= v. */
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

/** Shift left by K uint16 lanes, shifting "infinity" in. */
template <int K>
uint16x8_t
shiftLanesInf(uint16x8_t v)
{
    const uint16x8_t vinf = vdupq_n_u16(0xFFFF);
    return vextq_u16(vinf, v, 8 - K);
}

} // namespace

uint16_t
editRowNeon(const uint8_t *b, uint8_t a_ch, const uint16_t *prev,
            uint16_t *curr, size_t lo, size_t hi, uint16_t carry_in)
{
    const uint16x8_t vinf = vdupq_n_u16(0xFFFF);
    const uint16x8_t vone = vdupq_n_u16(1);
    alignas(16) static constexpr uint16_t kRamp[8] = {1, 2, 3, 4,
                                                     5, 6, 7, 8};
    const uint16x8_t ramp = vld1q_u16(kRamp);
    const uint8x8_t a_splat = vdup_n_u8(a_ch);
    uint16_t carry = carry_in;
    uint16x8_t vrowmin = vinf;
    for (size_t j0 = lo; j0 <= hi; j0 += 8) {
        const size_t valid = std::min<size_t>(8, hi - j0 + 1);
        uint8x8_t bch = vld1_u8(b + j0 - 1);
        // vceq gives 0xFF per equal byte; invert + mask to cost 0/1.
        uint8x8_t cost8 = vand_u8(vmvn_u8(vceq_u8(bch, a_splat)),
                                  vdup_n_u8(1));
        uint16x8_t cost = vmovl_u8(cost8);
        uint16x8_t pm1 = vld1q_u16(prev + j0 - 1);
        uint16x8_t p0 = vld1q_u16(prev + j0);
        uint16x8_t t = vminq_u16(vqaddq_u16(pm1, cost),
                                 vqaddq_u16(p0, vone));
        t = vminq_u16(t, vqaddq_u16(shiftLanesInf<1>(t),
                                    vdupq_n_u16(1)));
        t = vminq_u16(t, vqaddq_u16(shiftLanesInf<2>(t),
                                    vdupq_n_u16(2)));
        t = vminq_u16(t, vqaddq_u16(shiftLanesInf<4>(t),
                                    vdupq_n_u16(4)));
        t = vminq_u16(t, vqaddq_u16(vdupq_n_u16(carry), ramp));
        vst1q_u16(curr + j0, t);
        uint16x8_t masked = vorrq_u16(t, vld1q_u16(kTailMask[valid]));
        vrowmin = vminq_u16(vrowmin, masked);
        carry = vgetq_lane_u16(t, 7);
    }
    vst1q_u16(curr + hi + 1, vinf);
    vst1q_u16(curr + hi + 9, vinf);
    return vminvq_u16(vrowmin);
}

void
gf16SyndromesNeon(const uint8_t *const *cols, size_t ncols,
                  size_t parity, size_t rows,
                  const uint8_t *mul_tables, uint8_t *out)
{
    const size_t full = rows & ~size_t{15};
    for (size_t s = 0; s < parity; ++s) {
        const uint8x16_t tbl = vld1q_u8(mul_tables + s * 16);
        const uint8_t *tbl8 = mul_tables + s * 16;
        uint8_t *dst = out + s * rows;
        for (size_t r = 0; r < full; r += 16) {
            uint8x16_t acc = vdupq_n_u8(0);
            for (size_t c = 0; c < ncols; ++c) {
                uint8x16_t col = vld1q_u8(cols[c] + r);
                acc = veorq_u8(vqtbl1q_u8(tbl, acc), col);
            }
            vst1q_u8(dst + r, acc);
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

#endif // __aarch64__
