/**
 * @file
 * AVX2 kernels (4 uint64 lanes). Compiled with -mavx2; reachable
 * only through the AVX2 table after a cpuSupports(Avx2) check. Must
 * stay bit-identical to the scalar reference
 * (tests/simd_kernels_test.cc).
 */

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "common/simd_kernels.h"

namespace dnastore::simd::detail {

namespace {

__m256i
mul64(__m256i a, __m256i b)
{
    __m256i lo = _mm256_mul_epu32(a, b);
    __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                         _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__m256i
mix64(__m256i state)
{
    const __m256i gamma = _mm256_set1_epi64x(
        static_cast<long long>(0x9e3779b97f4a7c15ULL));
    const __m256i c1 = _mm256_set1_epi64x(
        static_cast<long long>(0xbf58476d1ce4e5b9ULL));
    const __m256i c2 = _mm256_set1_epi64x(
        static_cast<long long>(0x94d049bb133111ebULL));
    __m256i z = _mm256_add_epi64(state, gamma);
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), c1);
    z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), c2);
    return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

__m256i
umin64(__m256i a, __m256i b)
{
    const __m256i sign = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    __m256i a_gt_b = _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                                        _mm256_xor_si256(b, sign));
    return _mm256_blendv_epi8(a, b, a_gt_b);
}

} // namespace

void
minhashAvx2(const uint8_t *bases, size_t len, size_t q, uint64_t mask,
            const uint64_t *salts, size_t num_salts, uint64_t *out)
{
    size_t s = 0;
    for (; s + 4 <= num_salts; s += 4) {
        __m256i vsalts = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(salts + s));
        __m256i best = _mm256_set1_epi64x(-1);
        uint64_t packed = 0;
        for (size_t i = 0; i < len; ++i) {
            packed = ((packed << 2) | bases[i]) & mask;
            if (i + 1 < q)
                continue;
            __m256i state = _mm256_xor_si256(
                _mm256_set1_epi64x(static_cast<long long>(packed)),
                vsalts);
            best = umin64(best, mix64(state));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + s),
                            best);
    }
    if (s < num_salts) {
        minhashScalar(bases, len, q, mask, salts + s, num_salts - s,
                      out + s);
    }
}

} // namespace dnastore::simd::detail

#endif // x86
