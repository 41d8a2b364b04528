/**
 * @file
 * Systematic Reed-Solomon code over GF(16) with errors-and-erasures
 * decoding.
 *
 * One RS codeword is one *row* of the encoding-unit matrix (paper
 * Figure 1c): the i-th symbol of the codeword lives in the i-th
 * molecule of the unit. Molecule loss therefore shows up as an
 * erasure at a known column, and a mis-reconstructed molecule as a
 * symbol error. With n - k = 4 parity symbols, RS(15, 11) corrects
 * any pattern with (2 * errors + erasures) <= 4.
 */

#ifndef DNASTORE_ECC_REED_SOLOMON_H
#define DNASTORE_ECC_REED_SOLOMON_H

#include <cstdint>
#include <optional>
#include <vector>

namespace dnastore::ecc {

/** Outcome of a decode attempt. */
struct RsDecodeResult
{
    /** Corrected codeword (full n symbols), if decoding succeeded. */
    std::optional<std::vector<uint8_t>> codeword;

    /** Number of symbol errors corrected (not counting erasures). */
    size_t errors_corrected = 0;

    /** Number of erasures filled in. */
    size_t erasures_filled = 0;

    bool ok() const { return codeword.has_value(); }
};

/**
 * RS(n, k) over GF(16), n <= 15. Systematic: codeword = data symbols
 * followed by n-k parity symbols.
 */
class ReedSolomon
{
  public:
    /**
     * @param n codeword length in symbols (<= 15)
     * @param k data symbols per codeword (< n)
     */
    ReedSolomon(unsigned n, unsigned k);

    unsigned n() const { return n_; }
    unsigned k() const { return k_; }
    unsigned parity() const { return n_ - k_; }

    /** Encode k data symbols into an n-symbol systematic codeword. */
    std::vector<uint8_t> encode(const std::vector<uint8_t> &data) const;

    /**
     * Decode a received word with optional erasure positions
     * (indexes into the codeword). Erased positions may hold any
     * value; any other symbol above 15 raises FatalError, as in
     * encode(). Returns the corrected codeword or failure.
     */
    RsDecodeResult decode(const std::vector<uint8_t> &received,
                          const std::vector<size_t> &erasures = {}) const;

    /**
     * Decode with syndromes already in hand: @p word must have every
     * erased position zeroed and @p syndromes must hold the parity()
     * syndrome values of @p word (as computeSyndromes produces).
     * This is the back half of decode(); EncodingUnitCodec uses it
     * after batch-computing the syndromes of all unit rows in one
     * SIMD pass. Results and stats are identical to decode().
     */
    RsDecodeResult decodeWithSyndromes(
        std::vector<uint8_t> word, const std::vector<size_t> &erasures,
        const uint8_t *syndromes) const;

    /**
     * parity() rows of 16 bytes: row s maps v to
     * mul(alpha^(s+1), v) — the per-syndrome Horner multiplier in
     * the layout the gf16_syndromes kernel consumes.
     */
    const std::vector<uint8_t> &
    syndromeMulTables() const
    {
        return syndrome_tables_;
    }

    /** Extract the k data symbols from a full codeword. */
    std::vector<uint8_t>
    dataOf(const std::vector<uint8_t> &codeword) const
    {
        return {codeword.begin(), codeword.begin() + k_};
    }

  private:
    unsigned n_;
    unsigned k_;
    std::vector<uint8_t> generator_;
    std::vector<uint8_t> syndrome_tables_;

    std::vector<uint8_t> computeSyndromes(
        const std::vector<uint8_t> &received) const;
};

} // namespace dnastore::ecc

#endif // DNASTORE_ECC_REED_SOLOMON_H
