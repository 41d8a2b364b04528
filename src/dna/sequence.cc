#include "dna/sequence.h"

#include <algorithm>

#include "common/error.h"

namespace dnastore::dna {

void
detail::invalidBaseChar(char c)
{
    fatal("invalid DNA character '", c, "'");
}

Base
complement(Base base)
{
    // A<->T is 0<->3, C<->G is 1<->2: complement == 3 - value.
    return static_cast<Base>(3 - static_cast<uint8_t>(base));
}

char
complementChar(char c)
{
    return baseToChar(complement(charToBase(c)));
}

bool
isStrong(Base base)
{
    return base == Base::C || base == Base::G;
}

bool
isStrongChar(char c)
{
    return c == 'C' || c == 'G';
}

Sequence::Sequence(std::string bases)
    : bases_(std::move(bases))
{
    for (char c : bases_) {
        fatalIf(!isValidBaseChar(c),
                "Sequence contains invalid character '", c, "'");
    }
}

Sequence::Sequence(const std::vector<Base> &bases)
{
    bases_.reserve(bases.size());
    for (Base base : bases)
        bases_.push_back(baseToChar(base));
}

Sequence::Sequence(size_t count, Base base)
    : bases_(count, baseToChar(base))
{}

Base
Sequence::baseAt(size_t i) const
{
    panicIf(i >= bases_.size(), "Sequence::baseAt out of range");
    return charToBase(bases_[i]);
}

Sequence &
Sequence::operator+=(const Sequence &other)
{
    bases_ += other.bases_;
    return *this;
}

void
Sequence::push_back(Base base)
{
    bases_.push_back(baseToChar(base));
}

Sequence
Sequence::substr(size_t pos, size_t len) const
{
    Sequence result;
    result.bases_ = pos >= bases_.size() ? std::string()
                                         : bases_.substr(pos, len);
    return result;
}

bool
Sequence::startsWith(const Sequence &prefix) const
{
    return bases_.size() >= prefix.size() &&
           bases_.compare(0, prefix.size(), prefix.bases_) == 0;
}

bool
Sequence::endsWith(const Sequence &suffix) const
{
    return bases_.size() >= suffix.size() &&
           bases_.compare(bases_.size() - suffix.size(), suffix.size(),
                          suffix.bases_) == 0;
}

Sequence
Sequence::reverseComplement() const
{
    Sequence result;
    result.bases_.reserve(bases_.size());
    for (auto it = bases_.rbegin(); it != bases_.rend(); ++it)
        result.bases_.push_back(complementChar(*it));
    return result;
}

std::vector<Base>
Sequence::toBases() const
{
    std::vector<Base> result;
    result.reserve(bases_.size());
    for (char c : bases_)
        result.push_back(charToBase(c));
    return result;
}

Sequence
operator+(const Sequence &a, const Sequence &b)
{
    Sequence result = a;
    result += b;
    return result;
}

} // namespace dnastore::dna
