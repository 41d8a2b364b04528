/**
 * @file
 * Parity suite for the runtime-dispatched SIMD kernels.
 *
 * The scalar table defines the semantics; every other table that
 * kernelsFor() reports runnable on this CPU must reproduce it
 * bit-for-bit on randomized inputs, including the awkward cases
 * (saturated lanes, bands clipped to one cell, remainder tails
 * shorter than a vector). This is what extends the decode pipeline's
 * determinism contract from "any thread count" to "any ISA".
 *
 * The GF(16) multiply tables the syndrome kernel consumes are pinned
 * against the zero-checked scalar mul() in tests/gf16_test.cc.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "ecc/gf16.h"

namespace dnastore::simd {
namespace {

using ecc::GF16;

/** Every vector ISA the dispatcher can actually run here. */
std::vector<Isa>
vectorIsas()
{
    std::vector<Isa> isas;
    for (Isa isa : {Isa::Sse42, Isa::Avx2, Isa::Neon}) {
        if (kernelsFor(isa) != nullptr)
            isas.push_back(isa);
    }
    return isas;
}

const Kernels &
scalarRef()
{
    const Kernels *scalar = kernelsFor(Isa::Scalar);
    EXPECT_NE(scalar, nullptr);
    return *scalar;
}

TEST(SimdDispatchTest, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(cpuSupports(Isa::Scalar));
    EXPECT_NE(kernelsFor(Isa::Scalar), nullptr);
}

TEST(SimdDispatchTest, ActiveIsaIsRunnable)
{
    EXPECT_TRUE(cpuSupports(activeIsa()));
    EXPECT_EQ(kernelsFor(activeIsa()), &kernels());
}

TEST(SimdDispatchTest, BestSupportedIsRunnable)
{
    EXPECT_TRUE(cpuSupports(bestSupportedIsa()));
    EXPECT_NE(kernelsFor(bestSupportedIsa()), nullptr);
}

TEST(SimdDispatchTest, IsaNamesAreStable)
{
    EXPECT_STREQ(isaName(Isa::Scalar), "scalar");
    EXPECT_STREQ(isaName(Isa::Sse42), "sse4.2");
    EXPECT_STREQ(isaName(Isa::Avx2), "avx2");
    EXPECT_STREQ(isaName(Isa::Neon), "neon");
}

TEST(SimdDispatchTest, Avx2TableRequiresSse42)
{
    // The AVX2 table runs the SSE4.2 edit_row and syndrome kernels.
    if (cpuSupports(Isa::Avx2)) {
        EXPECT_TRUE(cpuSupports(Isa::Sse42));
        EXPECT_NE(kernelsFor(Isa::Sse42), nullptr);
    }
}

TEST(SimdDispatchTest, ScopedForceIsaRoundTrips)
{
    const Isa before = activeIsa();
    {
        ScopedForceIsa force(Isa::Scalar);
        EXPECT_EQ(activeIsa(), Isa::Scalar);
        EXPECT_EQ(&kernels(), kernelsFor(Isa::Scalar));
    }
    EXPECT_EQ(activeIsa(), before);
    EXPECT_EQ(&kernels(), kernelsFor(before));
}

/** Random DP cell: mostly finite, some saturated/near-saturated. */
uint16_t
randomCell(Rng &rng)
{
    switch (rng.nextBelow(8)) {
    case 0:
        return kInf16;
    case 1:
        return kInf16 - 1;
    default:
        return static_cast<uint16_t>(rng.nextBelow(3000));
    }
}

TEST(SimdKernelParityTest, EditRowMatchesScalar)
{
    const std::vector<Isa> isas = vectorIsas();
    const Kernels &scalar = scalarRef();
    Rng rng(0x51AD'0001);
    const char kBases[] = "ACGT";
    for (int trial = 0; trial < 400; ++trial) {
        const size_t n = 1 + rng.nextBelow(170);
        std::vector<uint8_t> b(n + kEditRowPad, 0);
        for (size_t i = 0; i < n; ++i)
            b[i] = static_cast<uint8_t>(kBases[rng.nextBelow(4)]);
        const uint8_t a_ch =
            static_cast<uint8_t>(kBases[rng.nextBelow(4)]);

        const size_t lo = 1 + rng.nextBelow(n);
        const size_t hi = lo + rng.nextBelow(n - lo + 1);
        const uint16_t carry_in =
            rng.nextBelow(4) == 0 ? kInf16 : randomCell(rng);

        std::vector<uint16_t> prev(n + 2 + kEditRowPad, kInf16);
        for (size_t j = lo > 0 ? lo - 1 : 0; j <= hi; ++j)
            prev[j] = randomCell(rng);

        std::vector<uint16_t> curr_scalar(prev.size(), kInf16);
        std::vector<uint16_t> curr_vec(prev.size(), kInf16);
        const uint16_t want = scalar.edit_row(
            b.data(), a_ch, prev.data(), curr_scalar.data(), lo, hi,
            carry_in);
        for (Isa isa : isas) {
            std::memset(curr_vec.data(), 0xFF,
                        curr_vec.size() * sizeof(uint16_t));
            const uint16_t got = kernelsFor(isa)->edit_row(
                b.data(), a_ch, prev.data(), curr_vec.data(), lo, hi,
                carry_in);
            ASSERT_EQ(got, want)
                << isaName(isa) << " trial " << trial << " lo=" << lo
                << " hi=" << hi;
            // Cells below lo are untouched (still 0xFFFF in both);
            // cells in (hi, hi+pad] must be restored to kInf16.
            for (size_t j = lo; j <= hi + kEditRowPad; ++j) {
                ASSERT_EQ(curr_vec[j], curr_scalar[j])
                    << isaName(isa) << " trial " << trial << " j="
                    << j << " lo=" << lo << " hi=" << hi;
            }
        }
    }
}

TEST(SimdKernelParityTest, MinhashMatchesScalar)
{
    const std::vector<Isa> isas = vectorIsas();
    const Kernels &scalar = scalarRef();
    Rng rng(0x51AD'0002);
    const size_t kQs[] = {1, 2, 3, 4, 8, 12, 16, 31, 32};
    for (int trial = 0; trial < 300; ++trial) {
        const size_t q = kQs[rng.nextBelow(std::size(kQs))];
        const size_t len = q + rng.nextBelow(200);
        std::vector<uint8_t> bases(len);
        for (uint8_t &base : bases)
            base = static_cast<uint8_t>(rng.nextBelow(4));
        const uint64_t mask =
            q * 2 >= 64 ? ~uint64_t{0} : (uint64_t{1} << (q * 2)) - 1;
        const size_t num_salts = 1 + rng.nextBelow(7);
        std::vector<uint64_t> salts(num_salts);
        for (uint64_t &salt : salts)
            salt = rng.next();

        std::vector<uint64_t> want(num_salts);
        std::vector<uint64_t> got(num_salts);
        scalar.minhash(bases.data(), len, q, mask, salts.data(),
                       num_salts, want.data());
        for (Isa isa : isas) {
            std::fill(got.begin(), got.end(), uint64_t{0});
            kernelsFor(isa)->minhash(bases.data(), len, q, mask,
                                     salts.data(), num_salts,
                                     got.data());
            ASSERT_EQ(got, want)
                << isaName(isa) << " trial " << trial << " len="
                << len << " q=" << q;
        }
    }
}

TEST(SimdKernelParityTest, Gf16SyndromesMatchScalarAndHorner)
{
    const std::vector<Isa> isas = vectorIsas();
    const Kernels &scalar = scalarRef();
    Rng rng(0x51AD'0003);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t ncols = 1 + rng.nextBelow(15);
        const size_t parity = 1 + rng.nextBelow(4);
        const size_t rows = 1 + rng.nextBelow(70);

        std::vector<std::vector<uint8_t>> cols(ncols);
        std::vector<const uint8_t *> col_ptrs(ncols);
        for (size_t c = 0; c < ncols; ++c) {
            cols[c].resize(rows);
            for (uint8_t &v : cols[c])
                v = static_cast<uint8_t>(rng.nextBelow(16));
            col_ptrs[c] = cols[c].data();
        }
        std::vector<uint8_t> mul_tables(parity * 16);
        for (size_t s = 0; s < parity; ++s) {
            const uint8_t *row = GF16::mulTable(
                GF16::alphaPow(static_cast<int>(s + 1)));
            std::copy(row, row + 16, mul_tables.begin() + s * 16);
        }

        std::vector<uint8_t> want(parity * rows);
        scalar.gf16_syndromes(col_ptrs.data(), ncols, parity, rows,
                              mul_tables.data(), want.data());

        // Independent Horner reference straight from GF16 ops.
        for (size_t s = 0; s < parity; ++s) {
            const uint8_t x =
                GF16::alphaPow(static_cast<int>(s + 1));
            for (size_t r = 0; r < rows; ++r) {
                uint8_t acc = 0;
                for (size_t c = 0; c < ncols; ++c) {
                    acc = static_cast<uint8_t>(GF16::mul(acc, x) ^
                                               cols[c][r]);
                }
                ASSERT_EQ(want[s * rows + r], acc)
                    << "scalar kernel vs Horner, trial " << trial;
            }
        }

        std::vector<uint8_t> got(parity * rows);
        for (Isa isa : isas) {
            std::fill(got.begin(), got.end(), uint8_t{0xAA});
            kernelsFor(isa)->gf16_syndromes(col_ptrs.data(), ncols,
                                            parity, rows,
                                            mul_tables.data(),
                                            got.data());
            ASSERT_EQ(got, want)
                << isaName(isa) << " trial " << trial << " ncols="
                << ncols << " rows=" << rows;
        }
    }
}

} // namespace
} // namespace dnastore::simd
