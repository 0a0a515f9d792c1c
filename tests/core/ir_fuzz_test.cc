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
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parser.hh"
#include "core/passes.hh"
#include "core/printer.hh"
#include "ml/rng.hh"

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

/** Values that sit on or past the edge of what a field accepts. */
const char* const kExtremes[] = {
    "-1", "0", "9223372036854775807", "$99", "nan", "u0", "\"\"", "[]",
};

using Lines = std::vector<std::string>;

std::string
readFile(const std::filesystem::path& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

Lines
splitLines(const std::string& text)
{
    Lines lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
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
    const auto t0 = std::chrono::steady_clock::now();
    std::string why = violation(input, accepted);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (why.empty() && s > kInputSeconds)
        why = "took " + std::to_string(s) + " s, over the " +
              std::to_string(kInputSeconds) + " s bound";
    return why;
}

/** Replace one token of `line` (a run outside ` =[],:()`) by `to`. */
void
replaceToken(std::string& line, ml::Rng& rng, const std::string& to)
{
    const char* const kSep = " =[],:()";
    std::vector<size_t> starts;
    for (size_t i = 0; i < line.size(); ++i) {
        bool sep = std::strchr(kSep, line[i]) != nullptr;
        bool after_sep = i == 0 || std::strchr(kSep, line[i - 1]);
        if (!sep && after_sep)
            starts.push_back(i);
    }
    if (starts.empty())
        return;
    size_t b = starts[size_t(rng.uniformInt(0, int64_t(starts.size()) - 1))];
    size_t e = line.find_first_of(kSep, b);
    line.replace(b, e == std::string::npos ? std::string::npos : e - b, to);
}

/** Mostly one edit of one fixture, sometimes two or three. */
std::string
mutate(ml::Rng& rng, const std::vector<Lines>& corpus)
{
    auto pick = [&rng](size_t n) {
        return size_t(rng.uniformInt(0, int64_t(n) - 1));
    };
    Lines lines = corpus[pick(corpus.size())];
    int64_t edits = rng.uniformInt(0, 3) ? 1 : rng.uniformInt(2, 3);
    for (; edits > 0; --edits) {
        if (lines.empty())
            break;
        size_t at = pick(lines.size());
        std::string& line = lines[at];
        switch (rng.uniformInt(0, 3)) {
          case 0: // Byte flip.
            if (!line.empty())
                line[pick(line.size())] ^= char(1 << rng.uniformInt(0, 7));
            break;
          case 1: // Extreme value in place of one token.
            replaceToken(line, rng,
                         kExtremes[pick(std::size(kExtremes))]);
            break;
          case 2: // Line deletion.
            lines.erase(lines.begin() + std::ptrdiff_t(at));
            break;
          default: { // Splice in a line of any fixture.
            const Lines& from = corpus[pick(corpus.size())];
            std::string other = from[pick(from.size())];
            if (rng.uniformInt(0, 1))
                line = std::move(other);
            else
                lines.insert(lines.begin() + std::ptrdiff_t(at),
                             std::move(other));
            break;
          }
        }
    }
    std::string out;
    for (const std::string& l : lines)
        out += l + "\n";
    return out;
}

TEST(IRFuzz, MutatedFixturesKeepParserInvariants)
{
    std::vector<Lines> corpus;
    for (const char* app : kFixtures) {
        corpus.push_back(splitLines(readFile(
            std::string(DHDL_IR_DATA_DIR) + "/golden/" + app + ".dhdl")));
        ASSERT_FALSE(corpus.back().empty()) << "missing fixture " << app;
    }
    ml::Rng rng(kSeed);
    int accepted = 0;
    for (int i = 0; i < kBudget; ++i) {
        const std::string input = mutate(rng, corpus);
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
