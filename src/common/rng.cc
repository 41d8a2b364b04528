#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace dnastore {

uint64_t
splitMix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
fnv1a(std::string_view text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

Rng::Rng(uint64_t seed)
{
    uint64_t state = seed;
    for (auto &word : s_)
        word = splitMix64(state);
}

void
Rng::zeroBoundPanic()
{
    panic("Rng::nextBelow called with bound 0");
}

int64_t
Rng::nextInRange(int64_t lo, int64_t hi)
{
    panicIf(lo > hi, "Rng::nextInRange: lo > hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(nextBelow(span));
}

double
Rng::nextGaussian()
{
    if (has_cached_gaussian_) {
        has_cached_gaussian_ = false;
        return cached_gaussian_;
    }
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    double u2 = nextDouble();
    double radius = std::sqrt(-2.0 * std::log(u1));
    double angle = 2.0 * M_PI * u2;
    cached_gaussian_ = radius * std::sin(angle);
    has_cached_gaussian_ = true;
    return radius * std::cos(angle);
}

double
Rng::nextLogNormal(double mu, double sigma)
{
    return std::exp(mu + sigma * nextGaussian());
}

uint64_t
Rng::nextPoisson(double lambda)
{
    panicIf(lambda < 0.0, "Rng::nextPoisson: negative lambda");
    if (lambda == 0.0)
        return 0;
    if (lambda < 30.0) {
        // Knuth's method.
        double limit = std::exp(-lambda);
        double product = nextDouble();
        uint64_t count = 0;
        while (product > limit) {
            ++count;
            product *= nextDouble();
        }
        return count;
    }
    // Normal approximation with continuity correction.
    double value = lambda + std::sqrt(lambda) * nextGaussian() + 0.5;
    return value < 0.0 ? 0 : static_cast<uint64_t>(value);
}

Rng
Rng::deriveStream(uint64_t seed, std::string_view label)
{
    return Rng(seed ^ fnv1a(label));
}

uint64_t
Rng::deriveSeed(uint64_t seed, uint64_t index)
{
    uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL + index * 0xff51afd7ed558ccdULL);
    return splitMix64(state);
}

} // namespace dnastore
