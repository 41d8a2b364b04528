/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the per-read decode hot
 * loops: the banded edit-distance row, MinHash hashing, and the
 * GF(16) Reed-Solomon syndrome sweep.
 *
 * Dispatch rules:
 *  - Every kernel has a portable scalar reference implementation.
 *    Each ISA (SSE4.2 / AVX2 on x86-64, NEON on aarch64) names one
 *    kernel table, and simd.cc fills every entry of it with the
 *    implementation that measured fastest at the decoder's shapes on
 *    that platform, which may be another ISA's function or the
 *    scalar one. The table is selected ONCE, at first use, from CPU
 *    feature detection.
 *  - All kernels are exact: for any input they produce bit-identical
 *    results on every ISA (integer min/add/xor/table-lookup only, no
 *    floating point, no reassociation of float sums). The decode
 *    pipeline's determinism contract — byte-identical output for any
 *    thread count — therefore extends to "for any ISA", and the
 *    parity suite in tests/simd_kernels_test.cc pins it.
 *  - `DNASTORE_FORCE_ISA` (values: scalar, sse4.2, avx2, neon)
 *    selects that ISA's table instead of the detected one for
 *    testing; forcing an ISA the CPU cannot run is a fatal error, as
 *    is an unknown value.
 *
 * New vectorized kernels must land scalar-reference-first: the
 * scalar entry in `Kernels` defines the semantics, the vector
 * implementations must match it bit-for-bit, and a parity test in
 * tests/simd_kernels_test.cc is required (see CONTRIBUTING.md).
 */

#ifndef DNASTORE_COMMON_SIMD_H
#define DNASTORE_COMMON_SIMD_H

#include <cstddef>
#include <cstdint>

namespace dnastore::simd {

/** Instruction sets the dispatcher can select. */
enum class Isa : uint8_t {
    Scalar = 0,
    Sse42 = 1,
    Avx2 = 2,
    Neon = 3,
};

/** Human-readable name ("scalar", "sse4.2", "avx2", "neon"). */
const char *isaName(Isa isa);

/** Saturation value used as "infinity" by the uint16 DP kernels. */
inline constexpr uint16_t kInf16 = 0xFFFF;

/**
 * Lane padding contract for editRow: row buffers must extend at
 * least kEditRowPad uint16 elements past index `hi`, and the `b`
 * string buffer at least kEditRowPad bytes past index `hi - 1`.
 * Vector stores may transiently clobber curr[hi+1 .. hi+kEditRowPad];
 * the kernel restores that range to kInf16 before returning.
 */
inline constexpr size_t kEditRowPad = 16;

/**
 * The kernel table. One function pointer per hot loop; every ISA's
 * table fills all entries, so the parity matrix stays total.
 */
struct Kernels
{
    /**
     * One row of a banded unit-cost edit-distance DP.
     *
     * For j in [lo, hi] (1-based columns, lo >= 1):
     *   t[j]    = min(prev[j-1] + (a_ch == b[j-1] ? 0 : 1),
     *                 prev[j] + 1)
     *   curr[j] = min(t[j], curr[j-1] + 1)
     * where curr[lo-1] is taken from @p carry_in (never from memory).
     * All arithmetic saturates at kInf16, which the callers treat as
     * "outside the band". Returns min(curr[lo..hi]).
     *
     * Buffer contract: see kEditRowPad. Cells below lo are not
     * written; cells in (hi, hi+kEditRowPad] are kInf16 on return.
     */
    uint16_t (*edit_row)(const uint8_t *b, uint8_t a_ch,
                         const uint16_t *prev, uint16_t *curr,
                         size_t lo, size_t hi, uint16_t carry_in);

    /**
     * MinHash signatures of one read under many salts.
     *
     * @p bases holds 2-bit base codes (values 0..3), one per
     * position. For each salt s, out[s] = min over all q-gram
     * windows w of splitMix64-mix(packed(w) ^ salts[s]), where the
     * mix matches dnastore::splitMix64 (state += golden gamma, then
     * xor-shift-multiply). @p mask is the (2q)-bit window mask.
     * Requires len >= q; out has num_salts entries.
     */
    void (*minhash)(const uint8_t *bases, size_t len, size_t q,
                    uint64_t mask, const uint64_t *salts,
                    size_t num_salts, uint64_t *out);

    /**
     * Batch GF(16) Reed-Solomon syndromes across the rows of an
     * encoding unit. cols[c] points at `rows` nibble values (0..15)
     * of column c; the codeword of row r is cols[0][r]..cols[n-1][r]
     * in descending-power order. For each syndrome index s in
     * [0, parity):
     *   acc = 0; for c: acc = mul_tables[s*16 + acc] ^ cols[c][r]
     *   out[s*rows + r] = acc
     * where mul_tables[s*16 + v] == GF16::mul(alpha^(s+1), v).
     */
    void (*gf16_syndromes)(const uint8_t *const *cols, size_t ncols,
                           size_t parity, size_t rows,
                           const uint8_t *mul_tables, uint8_t *out);
};

/** Best ISA the current CPU supports (ignores the env override). */
Isa bestSupportedIsa();

/**
 * True if the current CPU can run every kernel of @p isa's table.
 * The AVX2 table runs SSE4.2 kernels too, so Avx2 requires both.
 */
bool cpuSupports(Isa isa);

/**
 * The active ISA: best supported, unless DNASTORE_FORCE_ISA
 * overrides it. Resolved once; fatal on an unknown or unsupported
 * override value.
 */
Isa activeIsa();

/** Kernel table for the active ISA. */
const Kernels &kernels();

/**
 * Kernel table for a specific ISA, or nullptr when that ISA is not
 * compiled in or not runnable on this CPU. Parity tests iterate all
 * non-null tables against the scalar reference.
 */
const Kernels *kernelsFor(Isa isa);

/**
 * Test-only: swap the active kernel table (and reported ISA) for the
 * lifetime of the scope. Not thread-safe — use only in single-
 * threaded test setup, before fanning work out to a pool.
 */
class ScopedForceIsa
{
  public:
    explicit ScopedForceIsa(Isa isa);
    ~ScopedForceIsa();
    ScopedForceIsa(const ScopedForceIsa &) = delete;
    ScopedForceIsa &operator=(const ScopedForceIsa &) = delete;

  private:
    Isa saved_;
};

} // namespace dnastore::simd

#endif // DNASTORE_COMMON_SIMD_H
