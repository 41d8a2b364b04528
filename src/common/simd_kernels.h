/**
 * @file
 * Internal per-ISA kernel functions backing common/simd.h. Each ISA's
 * functions live in their own translation unit so the vector TUs can
 * be built with the matching -m flags; simd.cc assembles them into
 * the per-ISA tables. Nothing outside common/ includes this header —
 * use simd::kernels() / simd::kernelsFor() instead.
 *
 * Every function implements the contract of the `Kernels` entry it
 * is named after (editRow* → edit_row, minhash* → minhash,
 * gf16Syndromes* → gf16_syndromes).
 */

#ifndef DNASTORE_COMMON_SIMD_KERNELS_H
#define DNASTORE_COMMON_SIMD_KERNELS_H

#include "common/simd.h"

namespace dnastore::simd::detail {

// Always present; defines the semantics every other path matches.
uint16_t editRowScalar(const uint8_t *b, uint8_t a_ch,
                       const uint16_t *prev, uint16_t *curr, size_t lo,
                       size_t hi, uint16_t carry_in);
void minhashScalar(const uint8_t *bases, size_t len, size_t q,
                   uint64_t mask, const uint64_t *salts,
                   size_t num_salts, uint64_t *out);
void gf16SyndromesScalar(const uint8_t *const *cols, size_t ncols,
                         size_t parity, size_t rows,
                         const uint8_t *mul_tables, uint8_t *out);

#if defined(__x86_64__) || defined(__i386__)
uint16_t editRowSse42(const uint8_t *b, uint8_t a_ch,
                      const uint16_t *prev, uint16_t *curr, size_t lo,
                      size_t hi, uint16_t carry_in);
void gf16SyndromesSse42(const uint8_t *const *cols, size_t ncols,
                        size_t parity, size_t rows,
                        const uint8_t *mul_tables, uint8_t *out);
void minhashAvx2(const uint8_t *bases, size_t len, size_t q,
                 uint64_t mask, const uint64_t *salts, size_t num_salts,
                 uint64_t *out);
#endif

#if defined(__aarch64__)
uint16_t editRowNeon(const uint8_t *b, uint8_t a_ch,
                     const uint16_t *prev, uint16_t *curr, size_t lo,
                     size_t hi, uint16_t carry_in);
void gf16SyndromesNeon(const uint8_t *const *cols, size_t ncols,
                       size_t parity, size_t rows,
                       const uint8_t *mul_tables, uint8_t *out);
#endif

} // namespace dnastore::simd::detail

#endif // DNASTORE_COMMON_SIMD_KERNELS_H
