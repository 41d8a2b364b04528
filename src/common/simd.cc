#include "common/simd.h"

#include <cstdlib>
#include <string_view>

#include "common/error.h"
#include "common/simd_kernels.h"

namespace dnastore::simd {

namespace {

struct Active
{
    Isa isa;
    const Kernels *kernels;
};

/*
 * The one place that maps an ISA to its kernels: each entry is the
 * implementation that measured fastest for that platform at the
 * decoder's shapes (edit_row: 7- and 17-cell rows; minhash: 150
 * bases, q = 8, 4 salts; gf16_syndromes: 15 columns x 4 parity x 48
 * rows). README.md, "SIMD & memory layout", lists the timings.
 */
constexpr Kernels kScalarKernels = {
    detail::editRowScalar,
    detail::minhashScalar,
    detail::gf16SyndromesScalar,
};

#if defined(__x86_64__) || defined(__i386__)
constexpr Kernels kSse42Kernels = {
    detail::editRowSse42,
    // Two 64-bit lanes do not repay the emulated 64x64 multiply.
    detail::minhashScalar,
    detail::gf16SyndromesSse42,
};

constexpr Kernels kAvx2Kernels = {
    // 16-lane DP rows lose to 8-lane ones on 7- and 17-cell rows.
    detail::editRowSse42,
    detail::minhashAvx2,
    // 48 rows are one 32-row AVX2 block plus a 16-row scalar tail.
    detail::gf16SyndromesSse42,
};
#endif

#if defined(__aarch64__)
constexpr Kernels kNeonKernels = {
    detail::editRowNeon,
    // aarch64 has no vector 64x64 multiply.
    detail::minhashScalar,
    detail::gf16SyndromesNeon,
};
#endif

Isa
detectBest()
{
    for (Isa isa : {Isa::Neon, Isa::Avx2, Isa::Sse42}) {
        if (cpuSupports(isa))
            return isa;
    }
    return Isa::Scalar;
}

Isa
parseIsaName(std::string_view name)
{
    if (name == "scalar")
        return Isa::Scalar;
    if (name == "sse4.2" || name == "sse42")
        return Isa::Sse42;
    if (name == "avx2")
        return Isa::Avx2;
    if (name == "neon")
        return Isa::Neon;
    fatalIf(true, "DNASTORE_FORCE_ISA: unknown ISA '", name,
            "' (expected scalar, sse4.2, avx2 or neon)");
    return Isa::Scalar; // unreachable
}

Active
resolveActive()
{
    Isa isa = bestSupportedIsa();
    if (const char *forced = std::getenv("DNASTORE_FORCE_ISA")) {
        Isa wanted = parseIsaName(forced);
        fatalIf(!cpuSupports(wanted), "DNASTORE_FORCE_ISA=", forced,
                " is not runnable on this CPU (best: ",
                isaName(isa), ")");
        isa = wanted;
    }
    return {isa, kernelsFor(isa)};
}

/**
 * The resolved (ISA, kernel table) pair. Initialized once, lazily
 * and thread-safely, through the function-local static in
 * activeState(); ScopedForceIsa (test-only, single-threaded by
 * contract) swaps it temporarily.
 */
Active &
activeState()
{
    static Active active = resolveActive();
    return active;
}

} // namespace

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Sse42:
        return "sse4.2";
    case Isa::Avx2:
        return "avx2";
    case Isa::Neon:
        return "neon";
    }
    return "unknown";
}

Isa
bestSupportedIsa()
{
    static const Isa best = detectBest();
    return best;
}

bool
cpuSupports(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return true;
#if defined(__x86_64__) || defined(__i386__)
    case Isa::Sse42:
        return __builtin_cpu_supports("sse4.2");
    case Isa::Avx2:
        // The AVX2 table runs SSE4.2 kernels as well.
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("sse4.2");
#endif
#if defined(__aarch64__)
    case Isa::Neon:
        return true;
#endif
    default:
        return false;
    }
}

Isa
activeIsa()
{
    return activeState().isa;
}

const Kernels &
kernels()
{
    return *activeState().kernels;
}

const Kernels *
kernelsFor(Isa isa)
{
    if (!cpuSupports(isa))
        return nullptr;
    switch (isa) {
    case Isa::Scalar:
        return &kScalarKernels;
#if defined(__x86_64__) || defined(__i386__)
    case Isa::Sse42:
        return &kSse42Kernels;
    case Isa::Avx2:
        return &kAvx2Kernels;
#endif
#if defined(__aarch64__)
    case Isa::Neon:
        return &kNeonKernels;
#endif
    default:
        return nullptr;
    }
}

ScopedForceIsa::ScopedForceIsa(Isa isa)
    : saved_(activeState().isa)
{
    const Kernels *table = kernelsFor(isa);
    fatalIf(table == nullptr, "ScopedForceIsa: ", isaName(isa),
            " is not available on this CPU");
    activeState() = {isa, table};
}

ScopedForceIsa::~ScopedForceIsa()
{
    activeState() = {saved_, kernelsFor(saved_)};
}

} // namespace dnastore::simd
