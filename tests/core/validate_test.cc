#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/builder.hh"
#include "core/parser.hh"
#include "core/printer.hh"
#include "core/validate.hh"

#ifndef DHDL_IR_DATA_DIR
#define DHDL_IR_DATA_DIR "."
#endif

namespace dhdl {
namespace {

TEST(ValidateTest, EmptyDesignIsInvalid)
{
    Graph g("empty");
    auto errs = validate(g);
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NE(errs[0].find("no accel"), std::string::npos);
}

TEST(ValidateTest, DatapathPrimOutsidePipeFlagged)
{
    Design d("bad");
    d.accel([&](Scope& s) {
        // Arithmetic directly inside a Sequential: not allowed.
        Val a = s.constant(1.0);
        Val b = s.constant(2.0);
        s.binop(Op::Add, a, b);
    });
    auto errs = validate(d.graph());
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("outside a Pipe"), std::string::npos);
}

TEST(ValidateTest, ConstantsAllowedInOuterControllers)
{
    Design d("ok");
    d.accel([&](Scope& s) {
        s.constant(1.0);
    });
    EXPECT_TRUE(validate(d.graph()).empty());
}

TEST(ValidateTest, LoadFromOffchipFlagged)
{
    Design d("bad");
    Mem x = d.offchip("x", DType::f32(), {Sym::c(8)});
    d.accel([&](Scope& s) {
        s.pipe("P", {ctr(8)}, Sym::c(1),
               [&](Scope& p, std::vector<Val> ii) {
                   Val v = p.load(x, {ii[0]});
                   (void)v;
               });
    });
    auto errs = validate(d.graph());
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("TileLd"), std::string::npos);
}

TEST(ValidateTest, AddressArityMismatchFlagged)
{
    Design d("bad");
    d.accel([&](Scope& s) {
        Mem m = s.bram("m", DType::f32(), {Sym::c(8), Sym::c(8)});
        s.pipe("P", {ctr(8)}, Sym::c(1),
               [&](Scope& p, std::vector<Val> ii) {
                   p.store(m, {ii[0]}, p.constant(0.0));
               });
    });
    auto errs = validate(d.graph());
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("arity"), std::string::npos);
}

TEST(ValidateTest, BramInsidePipeFlagged)
{
    Design d("bad");
    d.accel([&](Scope& s) {
        s.pipe("P", {ctr(8)}, Sym::c(1),
               [&](Scope& p, std::vector<Val>) {
                   p.bram("inner", DType::f32(), {Sym::c(4)});
               });
    });
    auto errs = validate(d.graph());
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("Pipe bodies"), std::string::npos);
}

TEST(ValidateTest, TileLoadRankMismatchFlagged)
{
    Design d("bad");
    Mem x = d.offchip("x", DType::f32(), {Sym::c(8), Sym::c(8)});
    d.accel([&](Scope& s) {
        Mem t = s.bram("t", DType::f32(), {Sym::c(8)});
        s.tileLoad(x, t, {}, {Sym::c(8)});
    });
    auto errs = validate(d.graph());
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("rank"), std::string::npos);
}

TEST(ValidateTest, ValidGdaShapeAccepted)
{
    Design d("gda_like");
    Mem x = d.offchip("x", DType::f32(), {Sym::c(16), Sym::c(4)});
    Mem sig = d.offchip("sig", DType::f32(), {Sym::c(4), Sym::c(4)});
    d.accel([&](Scope& s) {
        Mem sig_t = s.bram("sigT", DType::f32(),
                           {Sym::c(4), Sym::c(4)});
        s.metaPipeReduce(
            "M1", {ctr(16, Sym::c(4))}, Sym::c(1), Sym::c(1), sig_t,
            Op::Add, [&](Scope& m, std::vector<Val> rv) -> Mem {
                Mem x_t =
                    m.bram("xT", DType::f32(), {Sym::c(4), Sym::c(4)});
                m.tileLoad(x, x_t, {rv[0]}, {Sym::c(4), Sym::c(4)});
                Mem blk = m.bram("blk", DType::f32(),
                                 {Sym::c(4), Sym::c(4)});
                m.pipe("P", {ctr(4), ctr(4)}, Sym::c(1),
                       [&](Scope& p, std::vector<Val> ij) {
                           Val v = p.load(x_t, {ij[0], ij[1]});
                           p.store(blk, {ij[0], ij[1]}, v * v);
                       });
                return blk;
            });
        s.tileStore(sig, sig_t, {}, {Sym::c(4), Sym::c(4)});
    });
    auto errs = validate(d.graph());
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs[0]);
}

TEST(ValidateTest, ValidateOrThrowThrowsWithAllMessages)
{
    Design d("bad");
    Mem x = d.offchip("x", DType::f32(), {Sym::c(8)});
    d.accel([&](Scope& s) {
        s.pipe("P", {ctr(8)}, Sym::c(1),
               [&](Scope& p, std::vector<Val> ii) {
                   Val v = p.load(x, {ii[0]});
                   (void)v;
               });
    });
    EXPECT_THROW(validateOrThrow(d.graph()), FatalError);
}

/**
 * A small design whose constant sizes are all distinct, so one
 * textual replacement in its IR hits exactly one of them: off-chip
 * dims 24, BRAM dims 12, tile extent 6, queue depth 16 and a counter
 * 0..8 by 1.
 */
std::string
sizedDesignIR()
{
    Design d("sized");
    Mem x = d.offchip("x", DType::f32(), {Sym::c(24)});
    d.accel([&](Scope& s) {
        Mem t = s.bram("t", DType::f32(), {Sym::c(12)});
        s.tileLoad(x, t, {}, {Sym::c(6)});
        s.queue("q", DType::f32(), Sym::c(16));
        Mem r = s.reg("r", DType::f32());
        s.pipe("P", {ctr(8)}, Sym::c(1),
               [&](Scope& p, std::vector<Val> ii) {
                   p.store(r, {p.constant(0.0, DType::i32())},
                           p.load(t, {ii[0]}));
               });
    });
    return emitIR(d.graph());
}

/** Validate the parsed sized design with `from` replaced by `to`. */
std::vector<std::string>
validateEdited(const std::string& from, const std::string& to)
{
    std::string text = sizedDesignIR();
    size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at == std::string::npos)
        return {};
    EXPECT_EQ(text.find(from, at + 1), std::string::npos) << from;
    text.replace(at, from.size(), to);
    ParseResult res = parseIR(text);
    EXPECT_TRUE(res.ok()) << res.status.diag().str();
    return res.ok() ? validate(*res.graph) : std::vector<std::string>{};
}

TEST(ValidateTest, ParsedConstantSizesBelowOneFlagged)
{
    // The design as built, and with counter bounds of 0, is valid.
    for (const char* bounds : {"dims=[0:8:1]", "dims=[0:0:1]"}) {
        auto errs = validateEdited("dims=[0:8:1]", bounds);
        EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs[0]);
    }
    const struct {
        const char* from;
        const char* to;
        const char* what;
    } cases[] = {
        {"dims=[24]", "dims=[0]", "memory dimension 0"},
        {"dims=[12]", "dims=[-5]", "memory dimension -5"},
        {"extent=[6]", "extent=[0]", "tile extent 0"},
        {"depth=16", "depth=-1", "queue depth -1"},
        {"dims=[0:8:1]", "dims=[0:8:0]", "counter step 0"},
    };
    for (const auto& c : cases) {
        auto errs = validateEdited(c.from, c.to);
        ASSERT_EQ(errs.size(), 1u) << c.to;
        EXPECT_NE(errs[0].find(std::string(c.what) + " is below 1"),
                  std::string::npos)
            << errs[0];
    }
}

/** The dotproduct golden fixture with each (from, to) edit applied. */
std::string
editedDotproduct(
    std::initializer_list<std::pair<std::string, std::string>> edits)
{
    std::ifstream is(DHDL_IR_DATA_DIR "/golden/dotproduct.dhdl");
    std::stringstream ss;
    ss << is.rdbuf();
    std::string text = ss.str();
    for (const auto& [from, to] : edits) {
        size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        if (at != std::string::npos)
            text.replace(at, from.size(), to);
    }
    return text;
}

TEST(ValidateTest, ParsedParameterSizesThatCanBindBelowOneFlagged)
{
    // tileSize may bind to 0 once its range admits 0 and the
    // constraint that divides by it is gone; every size it sets is
    // then flagged, naming the node and the parameter.
    ParseResult res = parseIR(editedDotproduct({
        {"divisor_of=187200000 min=1 max=131072",
         "divisor_of=0 min=0 max=3"},
        {"constraint ((187200000 / $0) % $1) == 0\n", ""},
    }));
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    auto errs = validate(*res.graph);
    const char* flagged[] = {
        "Counter 'M1.ctr'", "BRAM 'aT'", "BRAM 'bT'",
        "TileLd 'aT.load'", "TileLd 'bT.load'",
    };
    ASSERT_EQ(errs.size(), std::size(flagged));
    for (size_t i = 0; i < errs.size(); ++i) {
        EXPECT_NE(errs[i].find(flagged[i]), std::string::npos) << errs[i];
        EXPECT_NE(errs[i].find("can bind below 1: parameter 'tileSize' "
                               "may be 0"),
                  std::string::npos)
            << errs[i];
    }

    // The offset counts: at its smallest legal value 1, `$0-1` is 0.
    res = parseIR(
        editedDotproduct({{"dims=[$0] banks", "dims=[$0-1] banks"}}));
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    errs = validate(*res.graph);
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NE(errs[0].find("BRAM 'aT'"), std::string::npos) << errs[0];
    EXPECT_NE(errs[0].find("memory dimension can bind below 1"),
              std::string::npos)
        << errs[0];

    // The fixture as written is valid.
    res = parseIR(editedDotproduct({}));
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_TRUE(validate(*res.graph).empty());
}

TEST(ValidateTest, ParsedParameterNearInt64MaxValidates)
{
    // Sizes near INT64_MAX are at least 1, so validate accepts them;
    // listing the parameter's legal values must not overflow.
    ParseResult res = parseIR(editedDotproduct({
        {"default=1000 divisor_of=187200000 min=1 max=131072",
         "default=9223372036854775807 divisor_of=0 "
         "min=9223372036854775800 max=9223372036854775807"},
        {"constraint ((187200000 / $0) % $1) == 0\n", ""},
    }));
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_TRUE(validate(*res.graph).empty());
    auto legal = res.graph->params().legalValues(ParamId(0));
    ASSERT_EQ(legal.size(), 8u);
    EXPECT_EQ(legal.back(), INT64_MAX);
}

} // namespace
} // namespace dhdl
