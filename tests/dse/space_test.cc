#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/builder.hh"
#include "core/parser.hh"
#include "core/printer.hh"
#include "dse/space.hh"

namespace dhdl::dse {
namespace {

Design
spaceDesign(int64_t n = 1024)
{
    Design d("sp");
    ParamId ts = d.tileParam("ts", n);
    ParamId par = d.parParam("par", 96);
    ParamId tog = d.toggleParam("m1");
    d.constrain(CExpr::p(ts) % CExpr::p(par) == 0);
    (void)tog;
    Mem a = d.offchip("a", DType::f32(), {Sym::c(n)});
    d.accel([&](Scope& s) {
        s.metaPipe("M1", {ctr(n, Sym::p(ts))}, Sym::c(1), Sym::c(1),
                   [&](Scope& m, std::vector<Val> rv) {
                       Mem at =
                           m.bram("at", DType::f32(), {Sym::p(ts)});
                       m.tileLoad(a, at, {rv[0]}, {Sym::p(ts)},
                                  Sym::p(par));
                   });
    });
    return d;
}

TEST(SpaceTest, SizeEstimateIsProductOfLegalValues)
{
    Design d = spaceDesign();
    ParamSpace sp(d.graph());
    double expect = double(divisorsOf(1024).size()) *
                    double(divisorsOf(96).size()) * 2.0;
    EXPECT_DOUBLE_EQ(sp.sizeEstimate(), expect);
}

TEST(SpaceTest, HoldsTheTablesListsNotCopies)
{
    Design d = spaceDesign();
    ParamSpace space(d.graph());
    ASSERT_EQ(space.numParams(), d.params().size());
    for (size_t p = 0; p < space.numParams(); ++p) {
        EXPECT_EQ(space.legalValues(p).data(),
                  d.params().legalValues(ParamId(p)).data())
            << "param " << p;
        EXPECT_EQ(space.legalValues(p).size(),
                  d.params().legalValues(ParamId(p)).size())
            << "param " << p;
    }
}

TEST(SpaceTest, SampledBindingsAreWithinLegalValues)
{
    Design d = spaceDesign();
    ParamSpace sp(d.graph());
    auto samples = sp.sample(200, 1);
    EXPECT_FALSE(samples.empty());
    for (const auto& b : samples)
        EXPECT_TRUE(d.params().isLegal(b));
}

TEST(SpaceTest, SampleRespectsConstraints)
{
    Design d = spaceDesign();
    ParamSpace sp(d.graph());
    auto samples = sp.sample(100, 7);
    EXPECT_FALSE(samples.empty());
    for (const auto& b : samples)
        EXPECT_EQ(b.values[0] % b.values[1], 0)
            << b.values[0] << " % " << b.values[1];
}

TEST(SpaceTest, SampleIsDeduplicated)
{
    Design d = spaceDesign();
    ParamSpace sp(d.graph());
    auto samples = sp.sample(500, 3);
    std::set<std::vector<int64_t>> seen;
    for (const auto& b : samples)
        EXPECT_TRUE(seen.insert(b.values).second);
}

TEST(SpaceTest, SampleDeterministicPerSeed)
{
    Design d = spaceDesign();
    ParamSpace sp(d.graph());
    auto a = sp.sample(50, 11);
    auto b = sp.sample(50, 11);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].values, b[i].values);
}

TEST(SpaceTest, LocalMemoryCapPrunesHugeTiles)
{
    // 32-bit tile of 2^20 elems = 32 Mbit > the 4 Mbit cap.
    Design d = spaceDesign(int64_t(1) << 20);
    ParamSpace sp(d.graph());
    ParamBinding big{{int64_t(1) << 20, 1, 1}};
    EXPECT_FALSE(sp.isLegal(big));
    ParamBinding ok{{int64_t(1) << 16, 1, 1}};
    EXPECT_TRUE(sp.isLegal(ok));
}

TEST(SpaceTest, SmallSpaceExhaustedGracefully)
{
    Design d("tiny");
    d.toggleParam("t");
    d.accel([&](Scope&) {});
    ParamSpace sp(d.graph());
    auto samples = sp.sample(100, 5);
    EXPECT_EQ(samples.size(), 2u); // only toggle 0/1 exist
}

TEST(SpaceTest, SamplingShortfallReportsStructuredWarning)
{
    Design d("tiny");
    d.toggleParam("t");
    d.accel([&](Scope&) {});
    ParamSpace sp(d.graph());
    DiagSink sink;
    auto samples = sp.sample(100, 5, &sink);
    EXPECT_EQ(samples.size(), 2u);
    auto diags = sink.drain();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].code, DiagCode::SamplingShortfall);
    EXPECT_EQ(diags[0].severity, DiagSeverity::Warning);
    EXPECT_EQ(diags[0].stage, "sample");
    EXPECT_NE(diags[0].message.find("drew 2 of 100"),
              std::string::npos);
}

TEST(SpaceTest, NoShortfallWarningWhenSampleFills)
{
    Design d = spaceDesign();
    ParamSpace sp(d.graph());
    DiagSink sink;
    auto samples = sp.sample(10, 7, &sink);
    EXPECT_EQ(samples.size(), 10u);
    EXPECT_TRUE(sink.drain().empty());
}

TEST(SpaceTest, LocalMemBitsMatchesLegalityTerms)
{
    Design d = spaceDesign();
    ParamSpace sp(d.graph());
    // One f32 bram of ts elements: 32 * ts bits.
    ParamBinding b{{128, 4, 1}};
    EXPECT_EQ(sp.localMemBits(b), 32 * 128);
    ParamBinding b2{{512, 2, 0}};
    EXPECT_EQ(sp.localMemBits(b2), 32 * 512);
}

TEST(SpaceTest, MemoryCapHoldsWhenTheProductOverflows)
{
    // A ts x ts f32 tile with ts a divisor of 2^40. From ts = 2^29
    // the bit count passes 2^63, and from ts = 2^32 the dimension
    // product itself does; wrapped, those products read as 0 or
    // negative and would pass the 4 Mbit cap.
    Design d("wrap");
    ParamId ts = d.tileParam("ts", int64_t(1) << 40);
    d.parParam("par", 8);
    d.accel([&](Scope& s) {
        s.bram("t", DType::f32(), {Sym::p(ts), Sym::p(ts)});
    });
    ParamSpace sp(d.graph());
    auto fits = [](const ParamBinding& b) {
        const __int128 t = b.values[0];
        return t * t * 32 <= kMaxLocalMemBits;
    };
    // Legal: ts in {1, 2, ..., 256}, times the 4 divisors of 8.
    auto all = sp.enumerate(1000);
    EXPECT_EQ(all.size(), 36u);
    auto sampled = sp.sample(1000, 11);
    EXPECT_EQ(sampled.size(), 36u);
    for (const auto* set : {&all, &sampled})
        for (const auto& b : *set)
            EXPECT_TRUE(fits(b)) << "ts = " << b.values[0];

    for (int e : {29, 30, 32, 40}) {
        ParamBinding wrap{{int64_t(1) << e, 1}};
        EXPECT_FALSE(sp.isLegal(wrap)) << "ts = 2^" << e;
        EXPECT_EQ(sp.localMemBits(wrap), INT64_MAX) << "ts = 2^" << e;
    }
    EXPECT_EQ(sp.localMemBits(ParamBinding{{256, 1}}), 256 * 256 * 32);
}

TEST(SpaceTest, ParsedHugeTileStaysUnderTheMemoryCap)
{
    // The dotproduct fixture with tileSize a divisor of 2^62 and the
    // constraint that bounds it deleted. Its f32 tiles aT and bT fit
    // the cap only up to tileSize 2^17; the products from 2^58 on
    // wrap in 64 bits.
    std::ifstream is(DHDL_TEST_DATA_DIR "/../ir/golden/dotproduct.dhdl");
    std::stringstream ss;
    ss << is.rdbuf();
    std::string text = ss.str();
    for (const auto& [from, to] :
         {std::pair<std::string, std::string>{
              "divisor_of=187200000 min=1 max=131072",
              "divisor_of=4611686018427387904 min=1 "
              "max=4611686018427387904"},
          {"constraint ((187200000 / $0) % $1) == 0\n", ""}}) {
        size_t at = text.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        text.replace(at, from.size(), to);
    }
    ParseResult res = parseIR(text);
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    ParamSpace sp(*res.graph);
    auto all = sp.enumerate(100000);
    auto sampled = sp.sample(2000, 11);
    EXPECT_FALSE(all.empty());
    EXPECT_FALSE(sampled.empty());
    for (const auto* set : {&all, &sampled})
        for (const auto& b : *set) {
            EXPECT_LE(b.values[0], int64_t(1) << 17);
            // Summed over aT and bT, each under the cap.
            EXPECT_LE(sp.localMemBits(b), 2 * kMaxLocalMemBits);
        }
}

/** `.dhdl` text of a three-parameter design with no memories and
 *  one constraint. */
std::string
designWithConstraint(const std::string& constraint)
{
    Design d("agree");
    for (const char* name : {"a", "b", "c"})
        d.parParam(name, 8);
    d.accel([&](Scope&) {});
    std::string text = emitIR(d.graph());
    text.insert(text.find("node "), "constraint " + constraint + "\n");
    return text;
}

TEST(SpaceTest, LegalityAgreesWithConstraintEval)
{
    // 63 `(0 + ...)` wrappers around `($0 % $1)` nest the expression
    // to the parser's depth limit of 64; one more is rejected.
    std::string deep = "($0 % $1)";
    for (int i = 0; i < 63; ++i)
        deep = "(0 + " + deep + ")";
    EXPECT_FALSE(
        parseIR(designWithConstraint("(0 + " + deep + ") == 0")).ok());
    const std::string constraints[] = {
        // `$a % $b cmp k`, under all six comparisons.
        "($0 % $1) == 0",
        "($0 % $1) != 2",
        "($1 % $0) < 1",
        "($0 % $2) <= -1",
        "($2 % $1) > 0",
        "($0 % $1) >= 3",
        // `(c / $a) % $b cmp k`.
        "((12 / $0) % $1) == 0",
        "((-9223372036854775808 / $0) % $1) != 0",
        "((7 / $2) % $0) >= 1",
        // Everything else, near misses of both shapes included.
        "(($0 * $1) + $2) <= 100",
        "($0 - $1) > ($2 / $0)",
        "($0 % 3) == 0",
        "($0 % $1) == $2",
        "((12 / $0) % 5) == 2",
        "((12 * $0) % $1) == 0",
        deep + " == 0",
    };
    const int64_t edge[] = {INT64_MIN, INT64_MIN + 1, -7, -1, 0,
                            1,         2,             3,  12, INT64_MAX};
    for (const std::string& c : constraints) {
        ParseResult res = parseIR(designWithConstraint(c));
        ASSERT_TRUE(res.ok()) << c << ": " << res.status.diag().str();
        const Graph& g = *res.graph;
        ASSERT_EQ(g.constraints.size(), 1u) << c;
        ParamSpace sp(g);
        int held = 0, failed = 0;
        auto agree = [&](const ParamBinding& b) {
            const bool legal = sp.isLegal(b);
            EXPECT_EQ(legal, g.satisfiesConstraints(b)) << c;
            (legal ? held : failed)++;
        };
        for (int64_t x : edge)
            for (int64_t y : edge)
                for (int64_t z : edge)
                    agree(ParamBinding{{x, y, z}});
        // Bindings too short for the referenced parameters.
        agree(ParamBinding{});
        agree(ParamBinding{{12}});
        agree(ParamBinding{{12, 3}});
        EXPECT_GT(held, 0) << c;
        EXPECT_GT(failed, 0) << c;
    }
}

} // namespace
} // namespace dhdl::dse
