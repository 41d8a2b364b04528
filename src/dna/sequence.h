/**
 * @file
 * Core DNA sequence type and nucleotide helpers.
 *
 * A Sequence is a validated string over the alphabet {A, C, G, T},
 * stored 5'->3'. It is the common currency of every dnastore library:
 * codecs produce Sequences, the simulator amplifies and sequences
 * them, and the decoder parses them back into fields.
 */

#ifndef DNASTORE_DNA_SEQUENCE_H
#define DNASTORE_DNA_SEQUENCE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dnastore::dna {

/** The four nucleotides, numbered so that value == 2-bit encoding. */
enum class Base : uint8_t { A = 0, C = 1, G = 2, T = 3 };

/** All four bases in canonical A, C, G, T order. */
inline constexpr Base kAllBases[4] = {Base::A, Base::C, Base::G, Base::T};

/** Convert a base to its character. */
inline char
baseToChar(Base base)
{
    return "ACGT"[static_cast<uint8_t>(base)];
}

/**
 * The 2-bit code of a base character, unchecked and without a branch:
 * on the unsigned byte u, ((u >> 1) ^ (u >> 2)) & 3 maps 'A', 'C',
 * 'G', 'T' (0x41, 0x43, 0x47, 0x54) to 0, 1, 2, 3. Any other byte
 * also gets a code, so use it only on characters known to be bases,
 * such as a Sequence's; charToBase() is the checked form.
 */
inline uint8_t
baseCode(char c)
{
    const auto u = static_cast<unsigned char>(c);
    return static_cast<uint8_t>(((u >> 1) ^ (u >> 2)) & 3);
}

/** True if the character is one of ACGT: exactly the characters that
 *  baseCode() maps back to themselves. */
inline bool
isValidBaseChar(char c)
{
    return baseToChar(static_cast<Base>(baseCode(c))) == c;
}

namespace detail {

/** Raise the FatalError of charToBase() for an invalid character. */
[[noreturn]] void invalidBaseChar(char c);

} // namespace detail

/**
 * Convert a character to a base: 'A', 'C', 'G' and 'T' give Base::A,
 * Base::C, Base::G and Base::T; every other byte (lower case, 'N',
 * 'U', '\0', bytes >= 0x80) raises FatalError. Inline and branch-free
 * but for that one check, which valid input always passes, so the hot
 * loops over reads (BMA cursors, the MinHash conversion) call it per
 * base.
 */
inline Base
charToBase(char c)
{
    if (!isValidBaseChar(c)) [[unlikely]]
        detail::invalidBaseChar(c);
    return static_cast<Base>(baseCode(c));
}

/** Watson-Crick complement (A<->T, C<->G). */
Base complement(Base base);

/** Complement on characters. */
char complementChar(char c);

/**
 * True for the "strong" bases G and C (three hydrogen bonds).
 *
 * The paper's spacer construction (Section 4.3) alternates strong and
 * weak bases to keep every index prefix GC-balanced.
 */
bool isStrong(Base base);

/** isStrong() on characters. */
bool isStrongChar(char c);

/**
 * A validated DNA string over {A, C, G, T}, stored 5'->3'.
 *
 * Invariant: every character of str() is one of 'A','C','G','T'.
 */
class Sequence
{
  public:
    Sequence() = default;

    /** Construct from a character string; validates the alphabet. */
    explicit Sequence(std::string bases);

    /** Construct from bases. */
    explicit Sequence(const std::vector<Base> &bases);

    /** Construct a run of @p count copies of @p base. */
    Sequence(size_t count, Base base);

    /** Raw character view. */
    const std::string &str() const { return bases_; }

    size_t size() const { return bases_.size(); }
    bool empty() const { return bases_.empty(); }

    /** Character at position i (no bounds check beyond std::string). */
    char operator[](size_t i) const { return bases_[i]; }

    /** Base at position i. */
    Base baseAt(size_t i) const;

    /** Append another sequence. */
    Sequence &operator+=(const Sequence &other);

    /** Append a single base. */
    void push_back(Base base);

    /** Substring [pos, pos+len). Clamps like std::string::substr. */
    Sequence substr(size_t pos, size_t len = std::string::npos) const;

    /** True if @p prefix is a prefix of this sequence. */
    bool startsWith(const Sequence &prefix) const;

    /** True if @p suffix is a suffix of this sequence. */
    bool endsWith(const Sequence &suffix) const;

    /** Reverse complement (the opposite strand read 5'->3'). */
    Sequence reverseComplement() const;

    /** Decompose into a vector of Base values. */
    std::vector<Base> toBases() const;

    bool operator==(const Sequence &other) const = default;
    auto operator<=>(const Sequence &other) const = default;

  private:
    std::string bases_;
};

/** Concatenate two sequences. */
Sequence operator+(const Sequence &a, const Sequence &b);

/** Hash functor so Sequence can key unordered containers. */
struct SequenceHash
{
    size_t
    operator()(const Sequence &seq) const
    {
        return std::hash<std::string>{}(seq.str());
    }
};

} // namespace dnastore::dna

#endif // DNASTORE_DNA_SEQUENCE_H
