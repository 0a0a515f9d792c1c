/**
 * Round-trip and robustness suite for the `.dhdl` IR parser. The
 * contract under test has two halves:
 *
 *  1. emitIR -> parseIR -> emitIR is byte-identical for any graph
 *     the builder can produce (the canonical-form promise), and
 *  2. parseIR never crashes or aborts on malformed input — every
 *     rejection is a structured Diag with code ParseError.
 *
 * The hostile-input tests run the full corpus under the sanitizer CI
 * job, so any UB in the lexer shows up as a hard failure there.
 */

#ifndef DHDL_IR_DATA_DIR
#define DHDL_IR_DATA_DIR "."
#endif

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

#include "core/builder.hh"
#include "core/parser.hh"
#include "core/printer.hh"
#include "core/validate.hh"

namespace dhdl {
namespace {

/** A small but representative design: params, constraints, offchip
 *  memories, metapipe/pipe nesting, tile loads, reduce accumulators. */
Design
sampleDesign()
{
    Design d("sample");
    ParamId ts = d.tileParam("ts", 64);
    ParamId par = d.parParam("p1", 4);
    d.constrain(CExpr::p(ts) % CExpr::p(par) == 0);
    Mem a = d.offchip("a", DType::f32(), {Sym::c(4096)});
    Mem out = d.reg("result", DType::f32());
    d.accel([&](Scope& s) {
        s.metaPipeReduce(
            "M1", {ctr(4096, Sym::p(ts))}, Sym::c(1), Sym::c(1), out,
            Op::Add, [&](Scope& m, std::vector<Val> rv) -> Mem {
                Mem at = m.bram("at", DType::f32(), {Sym::p(ts)});
                m.tileLoad(a, at, {rv[0]}, {Sym::p(ts)});
                Mem acc = m.reg("acc", DType::f32());
                m.pipeReduce("P1", {ctr(Sym::p(ts))}, Sym::p(par),
                             acc, Op::Add,
                             [&](Scope& p, std::vector<Val> ii) {
                                 return p.load(at, {ii[0]});
                             });
                return acc;
            });
    });
    return d;
}

/** Expect a parse failure carrying a structured ParseError diag. */
void
expectReject(const std::string& text, const std::string& label)
{
    ParseResult res = parseIR(text);
    EXPECT_FALSE(res.ok()) << label;
    EXPECT_FALSE(res.graph.has_value()) << label;
    EXPECT_EQ(res.status.diag().code, DiagCode::ParseError) << label;
    EXPECT_FALSE(res.status.diag().message.empty()) << label;
}

TEST(ParserTest, RoundTripIsByteIdentical)
{
    Design d = sampleDesign();
    std::string first = emitIR(d.graph());
    ParseResult res = parseIR(first);
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_EQ(emitIR(*res.graph), first);
}

TEST(ParserTest, ParsedGraphMatchesOriginalShape)
{
    Design d = sampleDesign();
    ParseResult res = parseIR(emitIR(d.graph()));
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    const Graph& g = *res.graph;
    EXPECT_EQ(g.name(), d.graph().name());
    EXPECT_EQ(g.numNodes(), d.graph().numNodes());
    EXPECT_EQ(g.params().size(), d.graph().params().size());
    EXPECT_EQ(g.constraints.size(), d.graph().constraints.size());
    EXPECT_EQ(g.root, d.graph().root);
    EXPECT_EQ(g.offchipMems, d.graph().offchipMems);
    // The parsed graph passes the same structural validation the
    // builder output does.
    EXPECT_TRUE(validate(g).empty());
}

TEST(ParserTest, ConstraintsSurviveRoundTrip)
{
    Design d = sampleDesign();
    ParseResult res = parseIR(emitIR(d.graph()));
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.graph->constraints.size(), 1u);
    EXPECT_EQ(res.graph->constraints[0].str(),
              d.graph().constraints[0].str());
}

TEST(ParserTest, CommentsAndBlankLinesTolerated)
{
    Design d = sampleDesign();
    std::string canon = emitIR(d.graph());
    std::string noisy = "# leading comment\n\n";
    for (char c : canon) {
        noisy += c;
        if (c == '\n')
            noisy += "# interleaved comment\n\n";
    }
    ParseResult res = parseIR(noisy);
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_EQ(emitIR(*res.graph), canon);
}

TEST(ParserTest, CrlfLineEndingsTolerated)
{
    Design d = sampleDesign();
    std::string canon = emitIR(d.graph());
    std::string crlf;
    for (char c : canon) {
        if (c == '\n')
            crlf += '\r';
        crlf += c;
    }
    ParseResult res = parseIR(crlf);
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_EQ(emitIR(*res.graph), canon);
}

TEST(ParserTest, MissingTrailingNewlineTolerated)
{
    Design d = sampleDesign();
    std::string canon = emitIR(d.graph());
    ASSERT_EQ(canon.back(), '\n');
    ParseResult res = parseIR(canon.substr(0, canon.size() - 1));
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_EQ(emitIR(*res.graph), canon);
}

TEST(ParserTest, EscapedNamesRoundTrip)
{
    Design d("quote\"back\\slash\ttab\nnewline");
    d.accel([&](Scope&) {});
    std::string first = emitIR(d.graph());
    ParseResult res = parseIR(first);
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_EQ(res.graph->name(), d.graph().name());
    EXPECT_EQ(emitIR(*res.graph), first);
}

TEST(ParserTest, EmptyAndGarbageInputsRejected)
{
    expectReject("", "empty");
    expectReject("\n\n\n", "blank lines only");
    expectReject("hello world\n", "free text");
    expectReject(std::string("\x00\x01\x02\xff", 4), "binary");
    expectReject("dhdl 1\n", "header only");
    expectReject("dhdl 2\n", "unsupported version");
}

TEST(ParserTest, TruncationAtEveryByteNeverCrashes)
{
    // The canonical hostile corpus: every prefix of a valid file.
    // Each must either parse (only the full file can) or produce a
    // structured ParseError; none may crash or hang.
    Design d = sampleDesign();
    std::string canon = emitIR(d.graph());
    size_t ok_count = 0;
    for (size_t n = 0; n <= canon.size(); ++n) {
        ParseResult res = parseIR(canon.substr(0, n));
        if (res.ok())
            ++ok_count;
        else
            EXPECT_EQ(res.status.diag().code, DiagCode::ParseError)
                << "prefix length " << n;
    }
    // Only the complete file (with or without the final newline)
    // forms a valid document.
    EXPECT_EQ(ok_count, 2u);
}

TEST(ParserTest, LineDeletionNeverCrashes)
{
    Design d = sampleDesign();
    std::string canon = emitIR(d.graph());
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < canon.size()) {
        size_t nl = canon.find('\n', start);
        lines.push_back(canon.substr(start, nl - start + 1));
        start = nl + 1;
    }
    for (size_t skip = 0; skip < lines.size(); ++skip) {
        std::string mutated;
        for (size_t i = 0; i < lines.size(); ++i)
            if (i != skip)
                mutated += lines[i];
        ParseResult res = parseIR(mutated);
        if (!res.ok())
            EXPECT_EQ(res.status.diag().code, DiagCode::ParseError)
                << "deleted line " << skip;
    }
}

TEST(ParserTest, StructuralErrorsRejected)
{
    const std::string head = "dhdl 1\ndesign \"t\"\n";
    const std::string seq =
        "node %0 seq \"accel\" parent=_ counter=_ par=1 toggle=1 "
        "pattern=map combine=add accum=_ body=_ children=[]\n";
    const std::string tail = "root %0\noffchip []\nend\n";

    expectReject(head + seq + "root %0\noffchip []\n",
                 "missing end");
    expectReject(head + seq + tail + "end\n", "duplicate end");
    expectReject(head + seq + tail + "node %1 reg \"r\" parent=%0 "
                 "type=f32 init=0\n",
                 "content after end");
    expectReject("design \"t\"\n" + seq + tail,
                 "design before header");
    expectReject(head + "design \"t2\"\n" + seq + tail,
                 "duplicate design");
    expectReject(head + seq + "root %0\nroot %0\noffchip []\nend\n",
                 "duplicate root");
    expectReject(head + seq + "root %0\noffchip []\n"
                 "param \"late\" kind=tile default=1 divisor_of=0 "
                 "min=1 max=1\nend\n",
                 "section out of order");
    expectReject(head + seq + "root %4\noffchip []\nend\n",
                 "root out of range");
    expectReject(head +
                 "node %0 reg \"r\" parent=_ type=f32 init=0\n" +
                 "root %0\noffchip []\nend\n",
                 "root not a controller");
    expectReject(head + seq + "root _\noffchip []\nend\n",
                 "root missing");
    expectReject(head + seq + "root %0\noffchip [%0]\nend\n",
                 "offchip wrong kind");
}

TEST(ParserTest, NodeLevelErrorsRejected)
{
    const std::string head = "dhdl 1\ndesign \"t\"\n";
    const std::string tail = "root %0\noffchip []\nend\n";
    const std::string ctrl =
        "node %0 seq \"accel\" parent=_ counter=_ par=1 toggle=1 "
        "pattern=map combine=add accum=_ body=_ children=[%1]\n";

    expectReject(head +
                 "node %1 seq \"a\" parent=_ counter=_ par=1 "
                 "toggle=1 pattern=map combine=add accum=_ body=_ "
                 "children=[]\n" + tail,
                 "non-sequential ids");
    expectReject(head + ctrl +
                 "node %1 prim \"p\" parent=%0 op=add type=f32 "
                 "val=0 in=[%2] ctr=_ dim=0\n" + tail,
                 "forward data ref");
    expectReject(head + ctrl +
                 "node %1 prim \"p\" parent=%0 op=add type=f32 "
                 "val=0 in=[%1] ctr=_ dim=0\n" + tail,
                 "self data ref");
    expectReject(head + ctrl +
                 "node %1 prim \"p\" parent=%0 op=nosuchop "
                 "type=f32 val=0 in=[] ctr=_ dim=0\n" + tail,
                 "unknown op");
    expectReject(head + ctrl +
                 "node %1 prim \"p\" parent=%0 op=add type=q99 "
                 "val=0 in=[] ctr=_ dim=0\n" + tail,
                 "unknown dtype");
    expectReject(head + ctrl +
                 "node %1 prim \"p\" parent=%0 op=iter type=i32 "
                 "val=0 in=[] ctr=_ dim=0\n" + tail,
                 "iter without counter");
    expectReject(head + ctrl +
                 "node %1 wombat \"p\" parent=%0\n" + tail,
                 "unknown node kind");
    expectReject(head + ctrl +
                 "node %1 reg \"r\" parent=%1 type=f32 init=0\n" +
                 tail,
                 "self parent");
    expectReject(head + ctrl +
                 "node %1 reg \"r\" parent=%9 type=f32 init=0\n" +
                 tail,
                 "parent out of range");
    // Parent must be a controller: point a reg's parent at another
    // reg (%1 listed as %0's child keeps the forest consistent).
    expectReject(head +
                 "node %0 seq \"accel\" parent=_ counter=_ par=1 "
                 "toggle=1 pattern=map combine=add accum=_ body=_ "
                 "children=[%1,%2]\n"
                 "node %1 reg \"r\" parent=%0 type=f32 init=0\n"
                 "node %2 reg \"s\" parent=%1 type=f32 init=0\n" +
                 tail,
                 "parent not a controller");
    expectReject(head +
                 "node %0 seq \"accel\" parent=_ counter=_ par=1 "
                 "toggle=1 pattern=map combine=add accum=_ body=_ "
                 "children=[%1,%1]\n"
                 "node %1 reg \"r\" parent=%0 type=f32 init=0\n" +
                 tail,
                 "duplicate child");
    expectReject(head +
                 "node %0 seq \"accel\" parent=_ counter=_ par=1 "
                 "toggle=1 pattern=map combine=add accum=_ body=_ "
                 "children=[%1]\n"
                 "node %1 reg \"r\" parent=_ type=f32 init=0\n" +
                 tail,
                 "child parent mismatch");
    expectReject(head +
                 "node %0 seq \"a\" parent=%1 counter=_ par=1 "
                 "toggle=1 pattern=map combine=add accum=_ body=_ "
                 "children=[%1]\n"
                 "node %1 seq \"b\" parent=%0 counter=_ par=1 "
                 "toggle=1 pattern=map combine=add accum=_ body=_ "
                 "children=[%0]\n" + tail,
                 "parent cycle");
    expectReject(head + ctrl +
                 "node %1 ld \"l\" parent=%0 mem=%0 type=f32 "
                 "addr=[]\n" + tail,
                 "load from non-memory");
    expectReject(head + ctrl +
                 "node %1 counter \"c\" parent=%0 dims=[0:8:1]\n" +
                 tail,
                 "counter listed as child");
}

TEST(ParserTest, ParameterErrorsCarryTheirLineNumber)
{
    const std::string head = "dhdl 1\ndesign \"t\"\n";
    const std::string rest =
        "node %0 seq \"accel\" parent=_ counter=_ par=1 toggle=1 "
        "pattern=map combine=add accum=_ body=_ children=[]\n"
        "root %0\noffchip []\nend\n";
    // The last two have a divisor_of that costs up to 2^31 trial
    // divisions to factor: a prime near 2^62, and the product of the
    // two primes just above 2^20.
    for (const char* param :
         {"param \"\" kind=tile default=1 divisor_of=0 min=1 max=1\n",
          "param \"p\" kind=tile default=1 divisor_of=0 min=2 max=1\n",
          "param \"p\" kind=tile default=1 "
          "divisor_of=4611686018427387847 min=1 max=64\n",
          "param \"p\" kind=tile default=1 divisor_of=1099532599387 "
          "min=1 max=64\n"}) {
        ParseResult res = parseIR(head + param + rest);
        ASSERT_FALSE(res.ok()) << param;
        const std::string& msg = res.status.diag().message;
        EXPECT_EQ(res.status.diag().code, DiagCode::ParseError);
        EXPECT_EQ(msg.rfind("line 3: ", 0), 0u) << msg;
        EXPECT_EQ(msg.find("internal"), std::string::npos) << msg;
    }
}

/** INT64_MAX (largest prime factor 649657) and the largest prime
 *  below 2^40 both factor in at most 2^19 divisions. */
TEST(ParserTest, DivisorOfThatFactorsCheaplyIsAccepted)
{
    for (const char* n : {"9223372036854775807", "1099511627689"}) {
        const std::string text =
            std::string("dhdl 1\ndesign \"t\"\n"
                        "param \"p\" kind=tile default=1 divisor_of=") +
            n +
            " min=1 max=64\n"
            "node %0 seq \"accel\" parent=_ counter=_ par=1 toggle=1 "
            "pattern=map combine=add accum=_ body=_ children=[]\n"
            "root %0\noffchip []\nend\n";
        EXPECT_TRUE(parseIR(text).ok()) << n;
    }
}

std::string
readFixture(const std::string& name)
{
    std::ifstream is(std::string(DHDL_IR_DATA_DIR) + "/" + name);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** The legal values of a file's distinct parameter definitions may
 *  total 2^20: the fixture's range parameters list 4097 each, so its
 *  4,000 fail at the 255th, before any parameter is added, while 250
 *  of them parse. */
TEST(ParserTest, LegalValuesAreBoundedPerFile)
{
    const std::string ranges =
        readFixture("fuzz/range-params-distinct-bounds.dhdl");
    ParseResult res = parseIR(ranges);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status.diag().code, DiagCode::ParseError);
    const std::string& msg = res.status.diag().message;
    EXPECT_NE(msg.find("parameter 'r255'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("past 2^20"), std::string::npos) << msg;

    std::string fewer;
    std::istringstream lines(ranges);
    for (std::string line; std::getline(lines, line);) {
        const bool extra = line.rfind("param \"r", 0) == 0;
        if (!extra || std::stoi(line.substr(8)) <= 250)
            fewer += line + "\n";
    }
    res = parseIR(fewer);
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_EQ(res.graph->params().size(), 4u + 250u);
}

/** A file's distinct divisor_of values may cost 2^24 trial divisions
 *  to list, in total: each prime just below 2^40 costs 2^19, so the
 *  fixture's 64 fail at the 32nd, while any number of parameters on
 *  one such prime, or 16 distinct ones, parse. */
TEST(ParserTest, DivisorListingWorkIsBoundedPerFile)
{
    const std::string distinct =
        readFixture("fuzz/divisor-of-distinct-primes.dhdl");
    ParseResult res = parseIR(distinct);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status.diag().code, DiagCode::ParseError);
    const std::string& msg = res.status.diag().message;
    EXPECT_NE(msg.find("parameter 't31'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2^24 trial divisions"), std::string::npos)
        << msg;

    std::string sixteen;
    std::istringstream lines(distinct);
    for (std::string line; std::getline(lines, line);) {
        const bool extra = line.rfind("param \"t", 0) == 0 &&
                           std::isdigit(uint8_t(line[8]));
        if (!extra || std::stoi(line.substr(8)) < 16)
            sixteen += line + "\n";
    }
    res = parseIR(sixteen);
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_EQ(res.graph->params().size(), 4u + 16u);

    res = parseIR(readFixture("fuzz/divisor-of-repeated-prime.dhdl"));
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_EQ(res.graph->params().size(), 1003u);
}

TEST(ParserTest, LexicalErrorsRejected)
{
    const std::string head = "dhdl 1\ndesign \"t\"\n";
    const std::string seq =
        "node %0 seq \"accel\" parent=_ counter=_ par=1 toggle=1 "
        "pattern=map combine=add accum=_ body=_ children=[]\n";
    const std::string tail = "root %0\noffchip []\nend\n";

    expectReject(head + "param \"p\" kind=banana default=1 "
                 "divisor_of=0 min=1 max=1\n" + seq + tail,
                 "unknown param kind");
    expectReject(head + "constraint ($0 % $1) == 0\n" + seq + tail,
                 "constraint param out of range");
    expectReject("dhdl 1\ndesign \"unterminated\n" + seq + tail,
                 "unterminated string");
    expectReject("dhdl 1\ndesign \"bad\\q\"\n" + seq + tail,
                 "unknown escape");
    expectReject(head + seq + "root %99999999999999999999\n"
                 "offchip []\nend\n",
                 "integer overflow");
    expectReject(
        head + std::string("design \"") +
            std::string(1 << 14, 'x') + "\"\n" + seq + tail,
        "name too long");
}

} // namespace
} // namespace dhdl
