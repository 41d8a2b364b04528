/**
 * @file
 * Unit tests for the Sequence type and nucleotide helpers.
 */

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/error.h"
#include "dna/sequence.h"

namespace dnastore::dna {
namespace {

TEST(BaseTest, CharRoundTrip)
{
    for (Base base : kAllBases)
        EXPECT_EQ(charToBase(baseToChar(base)), base);
}

TEST(BaseTest, InvalidCharThrows)
{
    EXPECT_THROW(charToBase('N'), FatalError);
    EXPECT_THROW(charToBase('a'), FatalError);
}

// Every one of the 256 char values, so the branch-free decoding can
// never accept a byte that is not a base: lower case, 'N', 'U', '\0'
// and the bytes >= 0x80 (negative chars where char is signed) must
// all be refused by all three entry points.
TEST(BaseTest, DecodesExactlyTheFourBasesOfAllBytes)
{
    const std::pair<char, Base> bases[] = {
        {'A', Base::A}, {'C', Base::C}, {'G', Base::G}, {'T', Base::T}};
    size_t rejected = 0;
    for (int v = 0; v < 256; ++v) {
        const char c = static_cast<char>(v);
        const std::string where = "byte " + std::to_string(v);
        const auto match =
            std::find_if(std::begin(bases), std::end(bases),
                         [c](const auto &base) { return base.first == c; });
        if (match != std::end(bases)) {
            EXPECT_TRUE(isValidBaseChar(c)) << where;
            EXPECT_EQ(charToBase(c), match->second) << where;
            EXPECT_NO_THROW(Sequence(std::string(1, c))) << where;
            continue;
        }
        ++rejected;
        EXPECT_FALSE(isValidBaseChar(c)) << where;
        EXPECT_THROW(charToBase(c), FatalError) << where;
        EXPECT_THROW(Sequence(std::string(1, c)), FatalError) << where;
    }
    EXPECT_EQ(rejected, 252u);
}

TEST(BaseTest, Complement)
{
    EXPECT_EQ(complement(Base::A), Base::T);
    EXPECT_EQ(complement(Base::T), Base::A);
    EXPECT_EQ(complement(Base::C), Base::G);
    EXPECT_EQ(complement(Base::G), Base::C);
}

TEST(BaseTest, StrongWeakClasses)
{
    EXPECT_TRUE(isStrong(Base::C));
    EXPECT_TRUE(isStrong(Base::G));
    EXPECT_FALSE(isStrong(Base::A));
    EXPECT_FALSE(isStrong(Base::T));
}

TEST(SequenceTest, ValidatesAlphabet)
{
    EXPECT_NO_THROW(Sequence("ACGT"));
    EXPECT_THROW(Sequence("ACGU"), FatalError);
    EXPECT_THROW(Sequence("acgt"), FatalError);
}

TEST(SequenceTest, SizeAndIndexing)
{
    Sequence seq("GATTACA");
    EXPECT_EQ(seq.size(), 7u);
    EXPECT_EQ(seq[0], 'G');
    EXPECT_EQ(seq.baseAt(1), Base::A);
    EXPECT_FALSE(seq.empty());
    EXPECT_TRUE(Sequence().empty());
}

TEST(SequenceTest, FromBasesRoundTrip)
{
    std::vector<Base> bases = {Base::G, Base::C, Base::A, Base::T};
    Sequence seq(bases);
    EXPECT_EQ(seq.str(), "GCAT");
    EXPECT_EQ(seq.toBases(), bases);
}

TEST(SequenceTest, RunConstructor)
{
    Sequence seq(5, Base::C);
    EXPECT_EQ(seq.str(), "CCCCC");
}

TEST(SequenceTest, Concatenation)
{
    Sequence a("ACG");
    Sequence b("TTT");
    EXPECT_EQ((a + b).str(), "ACGTTT");
    a += b;
    EXPECT_EQ(a.str(), "ACGTTT");
}

TEST(SequenceTest, Substr)
{
    Sequence seq("ACGTACGT");
    EXPECT_EQ(seq.substr(2, 3).str(), "GTA");
    EXPECT_EQ(seq.substr(6).str(), "GT");
    EXPECT_EQ(seq.substr(100).str(), "");
}

TEST(SequenceTest, StartsEndsWith)
{
    Sequence seq("ACGTAC");
    EXPECT_TRUE(seq.startsWith(Sequence("ACG")));
    EXPECT_FALSE(seq.startsWith(Sequence("CG")));
    EXPECT_TRUE(seq.endsWith(Sequence("TAC")));
    EXPECT_FALSE(seq.endsWith(Sequence("ACG")));
    EXPECT_TRUE(seq.startsWith(Sequence()));
}

TEST(SequenceTest, ReverseComplement)
{
    EXPECT_EQ(Sequence("ACGT").reverseComplement().str(), "ACGT");
    EXPECT_EQ(Sequence("AACC").reverseComplement().str(), "GGTT");
    EXPECT_EQ(Sequence("A").reverseComplement().str(), "T");
}

TEST(SequenceTest, ReverseComplementIsInvolution)
{
    Sequence seq("GATTACAGGTC");
    EXPECT_EQ(seq.reverseComplement().reverseComplement(), seq);
}

TEST(SequenceTest, Ordering)
{
    EXPECT_LT(Sequence("AAA"), Sequence("AAC"));
    EXPECT_EQ(Sequence("ACG"), Sequence("ACG"));
}

TEST(SequenceTest, PushBack)
{
    Sequence seq;
    seq.push_back(Base::T);
    seq.push_back(Base::G);
    EXPECT_EQ(seq.str(), "TG");
}

} // namespace
} // namespace dnastore::dna
