#include "ecc/reed_solomon.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "ecc/gf16.h"

namespace dnastore::ecc {

namespace {

/** Polynomial coefficients, lowest degree first. */
using Poly = std::vector<uint8_t>;

/** Evaluate a polynomial at x via Horner's rule. */
uint8_t
polyEval(const Poly &poly, uint8_t x)
{
    uint8_t acc = 0;
    for (auto it = poly.rbegin(); it != poly.rend(); ++it)
        acc = GF16::add(GF16::mul(acc, x), *it);
    return acc;
}

Poly
polyMul(const Poly &a, const Poly &b)
{
    Poly result(a.size() + b.size() - 1, 0);
    for (size_t i = 0; i < a.size(); ++i) {
        for (size_t j = 0; j < b.size(); ++j) {
            result[i + j] = GF16::add(result[i + j],
                                      GF16::mul(a[i], b[j]));
        }
    }
    return result;
}

/** Formal derivative in characteristic 2: odd-degree terms survive. */
Poly
polyDerivative(const Poly &poly)
{
    Poly result;
    for (size_t i = 1; i < poly.size(); ++i)
        result.push_back(i % 2 == 1 ? poly[i] : 0);
    if (result.empty())
        result.push_back(0);
    return result;
}

} // namespace

ReedSolomon::ReedSolomon(unsigned n, unsigned k)
    : n_(n), k_(k)
{
    fatalIf(n > GF16::kMultGroupOrder,
            "RS codeword length ", n, " exceeds GF(16) limit of 15");
    fatalIf(k >= n, "RS requires k < n (got k=", k, ", n=", n, ")");

    // Generator polynomial: product of (x - alpha^i), i = 1..n-k.
    generator_ = {1};
    for (unsigned i = 1; i <= n_ - k_; ++i) {
        Poly factor = {GF16::alphaPow(static_cast<int>(i)), 1};
        generator_ = polyMul(generator_, factor);
    }

    // Per-syndrome Horner multiplier tables for the SIMD batch
    // syndrome kernel: row s is multiply-by-alpha^(s+1).
    syndrome_tables_.resize(static_cast<size_t>(n_ - k_) * 16);
    for (unsigned s = 0; s < n_ - k_; ++s) {
        const uint8_t *row =
            GF16::mulTable(GF16::alphaPow(static_cast<int>(s + 1)));
        std::copy(row, row + 16, syndrome_tables_.begin() + s * 16);
    }
}

std::vector<uint8_t>
ReedSolomon::encode(const std::vector<uint8_t> &data) const
{
    fatalIf(data.size() != k_,
            "RS encode expects ", k_, " symbols, got ", data.size());
    for (uint8_t symbol : data)
        fatalIf(symbol > 0xf, "RS symbol out of GF(16) range");

    // Systematic encoding: remainder of data * x^(n-k) mod generator.
    const unsigned parity_len = n_ - k_;
    std::vector<uint8_t> remainder(parity_len, 0);
    for (uint8_t symbol : data) {
        uint8_t feedback = GF16::add(symbol, remainder[0]);
        for (unsigned j = 0; j + 1 < parity_len; ++j) {
            remainder[j] = GF16::add(
                remainder[j + 1],
                GF16::mul(feedback,
                          generator_[parity_len - 1 - j]));
        }
        remainder[parity_len - 1] =
            GF16::mul(feedback, generator_[0]);
    }

    std::vector<uint8_t> codeword = data;
    codeword.insert(codeword.end(), remainder.begin(), remainder.end());
    return codeword;
}

std::vector<uint8_t>
ReedSolomon::computeSyndromes(const std::vector<uint8_t> &received) const
{
    // Codeword polynomial convention: symbol i is the coefficient of
    // x^(n-1-i), so evaluation uses descending powers.
    std::vector<uint8_t> syndromes(n_ - k_, 0);
    for (unsigned s = 0; s < n_ - k_; ++s) {
        uint8_t x = GF16::alphaPow(static_cast<int>(s + 1));
        uint8_t acc = 0;
        for (unsigned i = 0; i < n_; ++i)
            acc = GF16::add(GF16::mul(acc, x), received[i]);
        syndromes[s] = acc;
    }
    return syndromes;
}

RsDecodeResult
ReedSolomon::decode(const std::vector<uint8_t> &received,
                    const std::vector<size_t> &erasures) const
{
    RsDecodeResult result;
    fatalIf(received.size() != n_,
            "RS decode expects ", n_, " symbols, got ", received.size());
    if (erasures.size() > n_ - k_)
        return result;  // beyond guaranteed correction capability

    std::vector<uint8_t> word = received;
    // Zero out erased positions so they contribute known values.
    for (size_t pos : erasures) {
        fatalIf(pos >= n_, "erasure position out of range");
        word[pos] = 0;
    }
    for (uint8_t symbol : word)
        fatalIf(symbol > 0xf, "RS symbol out of GF(16) range");

    std::vector<uint8_t> syndromes = computeSyndromes(word);
    return decodeWithSyndromes(std::move(word), erasures,
                               syndromes.data());
}

RsDecodeResult
ReedSolomon::decodeWithSyndromes(std::vector<uint8_t> word,
                                 const std::vector<size_t> &erasures,
                                 const uint8_t *syndromes) const
{
    RsDecodeResult result;
    fatalIf(word.size() != n_,
            "RS decode expects ", n_, " symbols, got ", word.size());
    for (size_t pos : erasures)
        fatalIf(pos >= n_, "erasure position out of range");
    if (erasures.size() > n_ - k_)
        return result;  // beyond guaranteed correction capability

    bool all_zero = std::all_of(syndromes, syndromes + (n_ - k_),
                                [](uint8_t s) { return s == 0; });
    if (all_zero && erasures.empty()) {
        result.codeword = std::move(word);
        return result;
    }

    // Erasure locator: product over erasures of (1 - X_j x), where
    // X_j = alpha^(n-1-pos) under the descending-power convention.
    Poly erasure_locator = {1};
    for (size_t pos : erasures) {
        uint8_t locator_root =
            GF16::alphaPow(static_cast<int>(n_ - 1 - pos));
        erasure_locator = polyMul(erasure_locator, {1, locator_root});
    }

    // Modified syndrome polynomial S(x) * Gamma(x) mod x^(n-k).
    Poly syndrome_poly(syndromes, syndromes + (n_ - k_));
    Poly modified = polyMul(syndrome_poly, erasure_locator);
    modified.resize(n_ - k_, 0);

    // Berlekamp-Massey on the modified syndromes for the error
    // locator, with room for floor((n-k-erasures)/2) errors.
    const unsigned rho = static_cast<unsigned>(erasures.size());
    const unsigned max_errors = (n_ - k_ - rho) / 2;
    Poly sigma = {1};
    Poly prev_sigma = {1};
    unsigned errors = 0;
    unsigned m = 1;
    uint8_t prev_discrepancy = 1;
    for (unsigned i = rho; i < n_ - k_; ++i) {
        uint8_t discrepancy = modified[i];
        for (unsigned j = 1; j <= errors && j < sigma.size(); ++j) {
            discrepancy = GF16::add(
                discrepancy, GF16::mul(sigma[j], modified[i - j]));
        }
        if (discrepancy == 0) {
            ++m;
        } else if (2 * errors <= i - rho) {
            Poly old_sigma = sigma;
            uint8_t scale = GF16::div(discrepancy, prev_discrepancy);
            Poly shifted(m, 0);
            shifted.insert(shifted.end(), prev_sigma.begin(),
                           prev_sigma.end());
            if (sigma.size() < shifted.size())
                sigma.resize(shifted.size(), 0);
            for (size_t j = 0; j < shifted.size(); ++j) {
                sigma[j] = GF16::add(sigma[j],
                                     GF16::mul(scale, shifted[j]));
            }
            errors = i - rho + 1 - errors;
            prev_sigma = old_sigma;
            prev_discrepancy = discrepancy;
            m = 1;
        } else {
            uint8_t scale = GF16::div(discrepancy, prev_discrepancy);
            Poly shifted(m, 0);
            shifted.insert(shifted.end(), prev_sigma.begin(),
                           prev_sigma.end());
            if (sigma.size() < shifted.size())
                sigma.resize(shifted.size(), 0);
            for (size_t j = 0; j < shifted.size(); ++j) {
                sigma[j] = GF16::add(sigma[j],
                                     GF16::mul(scale, shifted[j]));
            }
            ++m;
        }
    }
    if (errors > max_errors)
        return result;  // uncorrectable

    // Full locator = error locator * erasure locator.
    Poly locator = polyMul(sigma, erasure_locator);

    // Chien search: find roots; root alpha^(-j) marks position with
    // X = alpha^j = alpha^(n-1-pos).
    std::vector<size_t> error_positions;
    for (unsigned pos = 0; pos < n_; ++pos) {
        int j = static_cast<int>(n_ - 1 - pos);
        uint8_t x_inv = GF16::alphaPow(-j);
        if (polyEval(locator, x_inv) == 0)
            error_positions.push_back(pos);
    }
    // Locator degree must match the number of found positions.
    size_t degree = 0;
    for (size_t i = 0; i < locator.size(); ++i) {
        if (locator[i] != 0)
            degree = i;
    }
    if (error_positions.size() != degree)
        return result;  // decoding failure

    // Forney: error evaluator Omega(x) = S(x) * Lambda(x) mod x^(n-k).
    Poly omega = polyMul(syndrome_poly, locator);
    omega.resize(n_ - k_, 0);
    Poly locator_deriv = polyDerivative(locator);

    size_t plain_errors = 0;
    for (size_t pos : error_positions) {
        int j = static_cast<int>(n_ - 1 - pos);
        uint8_t x_inv = GF16::alphaPow(-j);
        uint8_t numerator = polyEval(omega, x_inv);
        uint8_t denominator = polyEval(locator_deriv, x_inv);
        if (denominator == 0)
            return result;  // decoding failure
        uint8_t magnitude = GF16::div(numerator, denominator);
        word[pos] = GF16::add(word[pos], magnitude);
        bool was_erasure =
            std::find(erasures.begin(), erasures.end(), pos) !=
            erasures.end();
        if (!was_erasure && magnitude != 0)
            ++plain_errors;
    }

    // Verify: corrected word must have zero syndromes.
    std::vector<uint8_t> check = computeSyndromes(word);
    if (!std::all_of(check.begin(), check.end(),
                     [](uint8_t s) { return s == 0; })) {
        return result;
    }

    result.codeword = std::move(word);
    result.errors_corrected = plain_errors;
    result.erasures_filled = erasures.size();
    return result;
}

} // namespace dnastore::ecc
