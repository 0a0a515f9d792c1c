/**
 * Deterministic mutation fuzzing of the `.dhdl` parser. A seeded
 * mutator edits the golden fixtures of tests/ir/golden by byte flips,
 * extreme-value token replacement, line deletion and line splices
 * across fixtures. Every input must keep four invariants:
 *
 *  1. parseIR never throws;
 *  2. a rejection is a ParseError Diag, never an internal failure;
 *  3. an accepted input re-emits to a fixpoint:
 *     emitIR(parseIR(emitIR(g))) == emitIR(g);
 *  4. the standard passes run on an accepted graph without throwing.
 *
 * Each input must also finish within kInputSeconds, so "never
 * hangs" is checked, not assumed. The seed and budget are fixed, so
 * every run feeds the same inputs.
 * An input that once broke an invariant is kept under tests/ir/fuzz/
 * and replayed by IRFuzz.RegressionInputsKeepInvariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parser.hh"
#include "core/passes.hh"
#include "core/printer.hh"
#include "ml/rng.hh"
#include "../fuzz_mutator.hh"

#ifndef DHDL_IR_DATA_DIR
#define DHDL_IR_DATA_DIR "."
#endif

namespace dhdl {
namespace {

constexpr int kBudget = 20000;

/** Seconds one input may spend in timedViolation(): over 100x the
 *  slowest input under ASan+UBSan (15 ms, a regression input), so
 *  only a hang or a blow-up in what a file can cost trips it. */
constexpr double kInputSeconds = 2.0;
constexpr uint64_t kSeed = 0xd1d1f022ull;

const char* const kFixtures[] = {
    "dotproduct", "outerprod", "gemm", "tpchq6",
    "blackscholes", "gda", "kmeans", "conv2d",
};

/** What separates the tokens of a `.dhdl` line. */
const char* const kSeparators = " =[],:()";

/** Values that sit on or past the edge of what a field accepts. */
const char* const kExtremes[] = {
    "-1", "0", "9223372036854775807", "$99", "nan", "u0", "\"\"", "[]",
};

std::string
readFile(const std::filesystem::path& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/**
 * Why `input` breaks an invariant; empty when it keeps them all.
 * Sets *accepted when given and the input parses.
 */
std::string
violation(const std::string& input, bool* accepted = nullptr)
{
    ParseResult res;
    try {
        res = parseIR(input);
    } catch (const std::exception& e) {
        return std::string("parseIR threw: ") + e.what();
    }
    if (!res.ok()) {
        const Diag& d = res.status.diag();
        if (d.code != DiagCode::ParseError)
            return "rejection is not a ParseError: " + d.str();
        if (d.message.find("internal parse failure") != std::string::npos)
            return "internal failure: " + d.message;
        if (res.graph)
            return "a rejected input kept its graph";
        return {};
    }
    if (accepted)
        *accepted = true;
    const std::string once = emitIR(*res.graph);
    ParseResult again = parseIR(once);
    if (!again.ok())
        return "re-emission rejected: " + again.status.diag().str();
    if (emitIR(*again.graph) != once)
        return "emit after parse is not a fixpoint";
    try {
        DiagSink sink;
        PassContext ctx(sink);
        standardPasses().run(*res.graph, ctx);
    } catch (const std::exception& e) {
        return std::string("standard passes threw: ") + e.what();
    }
    return {};
}

/** violation(), plus a failure when the input takes longer than
 *  kInputSeconds. */
std::string
timedViolation(const std::string& input, bool* accepted = nullptr)
{
    return fuzz::timed([&] { return violation(input, accepted); },
                       kInputSeconds);
}

TEST(IRFuzz, MutatedFixturesKeepParserInvariants)
{
    std::vector<fuzz::Lines> corpus;
    for (const char* app : kFixtures) {
        corpus.push_back(fuzz::splitLines(readFile(
            std::string(DHDL_IR_DATA_DIR) + "/golden/" + app + ".dhdl")));
        ASSERT_FALSE(corpus.back().empty()) << "missing fixture " << app;
    }
    ml::Rng rng(kSeed);
    int accepted = 0;
    for (int i = 0; i < kBudget; ++i) {
        const std::string input =
            fuzz::mutate(rng, corpus, kSeparators, kExtremes);
        bool ok = false;
        const std::string why = timedViolation(input, &ok);
        ASSERT_TRUE(why.empty()) << "input " << i << ": " << why
                                 << "\n--- input ---\n" << input;
        accepted += ok ? 1 : 0;
    }
    // Both sides of the parser must be exercised.
    EXPECT_GT(accepted, kBudget / 100);
    EXPECT_LT(accepted, kBudget - kBudget / 100);
}

TEST(IRFuzz, RegressionInputsKeepInvariants)
{
    std::vector<std::filesystem::path> files;
    for (const auto& e : std::filesystem::directory_iterator(
             std::string(DHDL_IR_DATA_DIR) + "/fuzz"))
        files.push_back(e.path());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    for (const auto& f : files)
        EXPECT_EQ(timedViolation(readFile(f)), "") << f;
}

} // namespace
} // namespace dhdl
