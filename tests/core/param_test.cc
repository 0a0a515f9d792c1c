#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/param.hh"

namespace dhdl {
namespace {

std::vector<int64_t>
copyOf(std::span<const int64_t> vals)
{
    return {vals.begin(), vals.end()};
}

TEST(DivisorsTest, SmallNumbers)
{
    EXPECT_EQ(divisorsOf(1), (std::vector<int64_t>{1}));
    EXPECT_EQ(divisorsOf(12), (std::vector<int64_t>{1, 2, 3, 4, 6, 12}));
    EXPECT_EQ(divisorsOf(17), (std::vector<int64_t>{1, 17}));
}

TEST(DivisorsTest, PerfectSquare)
{
    EXPECT_EQ(divisorsOf(36),
              (std::vector<int64_t>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
}

TEST(DivisorsTest, NonPositive)
{
    EXPECT_TRUE(divisorsOf(0).empty());
    EXPECT_TRUE(divisorsOf(-4).empty());
}

TEST(DivisorsTest, MatchesTrialDivisionAndFactorsPowersOfTwo)
{
    for (int64_t n = 1; n <= 5000; ++n) {
        std::vector<int64_t> want;
        for (int64_t d = 1; d <= n; ++d)
            if (n % d == 0)
                want.push_back(d);
        ASSERT_EQ(divisorsOf(n), want) << n;
    }
    // 2^62 has 63 divisors; it factors in a few steps, not 2^31.
    auto divs = divisorsOf(int64_t(1) << 62);
    ASSERT_EQ(divs.size(), 63u);
    for (int i = 0; i < 63; ++i)
        EXPECT_EQ(divs[size_t(i)], int64_t(1) << i);
    EXPECT_EQ(divisorsOf(INT64_MAX).back(), INT64_MAX);
}

TEST(ParamTableTest, TileSizeLegalValuesAreDivisors)
{
    ParamTable t;
    ParamDef d;
    d.name = "tile";
    d.kind = ParamKind::TileSize;
    d.divisorOf = 96;
    d.defaultValue = 96;
    ParamId p = t.add(d);
    auto legal = t.legalValues(p);
    for (int64_t v : legal)
        EXPECT_EQ(96 % v, 0) << v;
    EXPECT_EQ(legal.size(), divisorsOf(96).size());
}

TEST(ParamTableTest, MaxValueCapsLegalValues)
{
    ParamTable t;
    ParamDef d;
    d.name = "tile";
    d.kind = ParamKind::TileSize;
    d.divisorOf = 96;
    d.maxValue = 16;
    d.defaultValue = 16;
    ParamId p = t.add(d);
    for (int64_t v : t.legalValues(p))
        EXPECT_LE(v, 16);
}

TEST(ParamTableTest, UnboundedRangeStopsAtInt64Max)
{
    // Without divisor_of, at most 4097 values from min, and a range
    // that ends at INT64_MAX neither wraps nor steps past it.
    ParamTable t;
    ParamDef d;
    d.name = "tile";
    d.kind = ParamKind::TileSize;
    d.divisorOf = 0;
    d.minValue = INT64_MAX - 7;
    d.maxValue = INT64_MAX;
    d.defaultValue = INT64_MAX;
    auto top = t.legalValues(t.add(d));
    ASSERT_EQ(top.size(), 8u);
    EXPECT_EQ(top.front(), INT64_MAX - 7);
    EXPECT_EQ(top.back(), INT64_MAX);

    d.name = "wide";
    d.minValue = INT64_MIN;
    auto wide = t.legalValues(t.add(d));
    ASSERT_EQ(wide.size(), 4097u);
    EXPECT_EQ(wide.front(), INT64_MIN);
    EXPECT_EQ(wide.back(), INT64_MIN + 4096);
}

// The parser bounds a file's legal values with listedValues(), so it
// must count what add() lists for every definition without a
// divisor_of.
TEST(ParamTableTest, ListedValuesCountsWhatAddLists)
{
    ParamTable t;
    auto def = [](ParamKind kind, int64_t lo, int64_t hi) {
        ParamDef d;
        d.name = "p";
        d.kind = kind;
        d.minValue = lo;
        d.maxValue = hi;
        d.defaultValue = lo;
        return d;
    };
    for (const ParamDef& d :
         {def(ParamKind::Toggle, 0, 1), def(ParamKind::Fixed, 7, 7),
          def(ParamKind::ParFactor, 1, 10),
          def(ParamKind::TileSize, INT64_MAX - 7, INT64_MAX),
          def(ParamKind::TileSize, INT64_MIN, INT64_MAX)}) {
        const ParamId p = t.add(d);
        EXPECT_EQ(int64_t(t.legalValues(p).size()),
                  ParamTable::listedValues(d))
            << d.minValue << ".." << d.maxValue;
    }
}

TEST(ParamTableTest, ToggleValues)
{
    ParamTable t;
    ParamDef d;
    d.name = "m1";
    d.kind = ParamKind::Toggle;
    d.minValue = 0;
    ParamId p = t.add(d);
    EXPECT_EQ(copyOf(t.legalValues(p)), (std::vector<int64_t>{0, 1}));
}

TEST(ParamTableTest, FixedParamHasSingleValue)
{
    ParamTable t;
    ParamDef d;
    d.name = "k";
    d.kind = ParamKind::Fixed;
    d.defaultValue = 7;
    ParamId p = t.add(d);
    EXPECT_EQ(copyOf(t.legalValues(p)), (std::vector<int64_t>{7}));
}

TEST(ParamTableTest, DefaultsBinding)
{
    ParamTable t;
    ParamDef a;
    a.name = "a";
    a.defaultValue = 3;
    ParamDef b;
    b.name = "b";
    b.defaultValue = 5;
    t.add(a);
    t.add(b);
    auto bind = t.defaults();
    EXPECT_EQ(bind.values, (std::vector<int64_t>{3, 5}));
}

TEST(ParamTableTest, IsLegalChecksEveryParam)
{
    ParamTable t;
    ParamDef d;
    d.name = "tile";
    d.kind = ParamKind::TileSize;
    d.divisorOf = 12;
    d.defaultValue = 12;
    t.add(d);
    ParamBinding good{{6}};
    ParamBinding bad{{5}};
    ParamBinding wrong_size{{6, 6}};
    EXPECT_TRUE(t.isLegal(good));
    EXPECT_FALSE(t.isLegal(bad));
    EXPECT_FALSE(t.isLegal(wrong_size));
}

/**
 * A table of shared and distinct definitions, including two that
 * differ only in a default that decides their (otherwise empty)
 * legal set; parameters 0, 1 and 8 are defined alike.
 */
ParamTable
mixedDefinitions()
{
    ParamTable t;
    auto add = [&](ParamKind kind, int64_t divisorOf, int64_t lo,
                   int64_t hi, int64_t dflt) {
        ParamDef d;
        d.name = "p" + std::to_string(t.size());
        d.kind = kind;
        d.divisorOf = divisorOf;
        d.minValue = lo;
        d.maxValue = hi;
        d.defaultValue = dflt;
        t.add(d);
    };
    add(ParamKind::TileSize, 96, 1, 96, 1);
    add(ParamKind::TileSize, 96, 1, 96, 1);
    add(ParamKind::ParFactor, 96, 1, 96, 1);
    add(ParamKind::TileSize, 96, 1, 8, 1);
    add(ParamKind::TileSize, 7, 2, 6, 3);
    add(ParamKind::TileSize, 7, 2, 6, 5);
    add(ParamKind::Toggle, 0, 0, 1, 1);
    add(ParamKind::Fixed, 0, 1, 1, 4);
    add(ParamKind::TileSize, 96, 1, 96, 1);
    return t;
}

TEST(ParamTableTest, SharedListsMatchEachParameterListedAlone)
{
    const ParamTable t = mixedDefinitions();
    for (size_t i = 0; i < t.size(); ++i) {
        ParamTable alone;
        const ParamId p = alone.add(t[ParamId(i)]);
        EXPECT_EQ(copyOf(t.legalValues(ParamId(i))),
                  copyOf(alone.legalValues(p)))
            << "param " << i;
    }
    EXPECT_EQ(copyOf(t.legalValues(3)),
              (std::vector<int64_t>{1, 2, 3, 4, 6, 8}));
    EXPECT_EQ(copyOf(t.legalValues(4)), (std::vector<int64_t>{3}));
    EXPECT_EQ(copyOf(t.legalValues(5)), (std::vector<int64_t>{5}));
}

TEST(ParamTableTest, EqualDefinitionsShareOneList)
{
    const ParamTable t = mixedDefinitions();
    const auto shared = t.legalValues(0);
    // Parameters defined alike share one range; so does a definition
    // that keeps every divisor, whatever its kind.
    for (ParamId p : {1, 8, 2}) {
        EXPECT_EQ(t.legalValues(p).data(), shared.data()) << p;
        EXPECT_EQ(t.legalValues(p).size(), shared.size()) << p;
    }
    // A narrower one is a shorter range of the same divisor list.
    EXPECT_EQ(t.legalValues(3).data(), shared.data());
    EXPECT_EQ(t.legalValues(3).size(), 6u);
}

TEST(ParamTableTest, BoundsOnOneDivisorOfShareItsList)
{
    // 40 definitions on one smooth divisor_of that differ only in
    // max: every one is a range of the single divisor list, so the
    // table stores that list once, not once per definition.
    constexpr int64_t kValue = 897612484786617600;
    const size_t all = divisorsOf(kValue).size();
    ParamTable t;
    for (int64_t k = 0; k < 40; ++k) {
        ParamDef d;
        d.name = "t";
        d.name += std::to_string(k);
        d.kind = ParamKind::TileSize;
        d.divisorOf = kValue;
        d.maxValue = kValue - k;
        t.add(d);
    }
    const int64_t* first = t.legalValues(0).data();
    ASSERT_EQ(t.legalValues(0).size(), all);
    for (ParamId p = 1; p < 40; ++p) {
        EXPECT_EQ(t.legalValues(p).data(), first) << p;
        EXPECT_EQ(t.legalValues(p).size(), all - 1) << p;
    }
}

TEST(ParamTableTest, UnnamedParamRejected)
{
    ParamTable t;
    EXPECT_THROW(t.add(ParamDef{}), FatalError);
}

TEST(SymTest, ConstantEvaluation)
{
    ParamBinding b{{}};
    EXPECT_EQ(Sym::c(42).eval(b), 42);
    EXPECT_FALSE(Sym::c(42).isParam());
    EXPECT_EQ(Sym::c(42).constant(), 42);
}

TEST(SymTest, ParamEvaluation)
{
    ParamBinding b{{7, 9}};
    EXPECT_EQ(Sym::p(1).eval(b), 9);
    EXPECT_TRUE(Sym::p(1).isParam());
}

TEST(SymTest, ConstantOnParamSymbolPanics)
{
    EXPECT_THROW(Sym::p(0).constant(), PanicError);
}

} // namespace
} // namespace dhdl
