/**
 * @file
 * The seeded line/token mutator and per-input time bound shared by
 * the text-format fuzzers (IRFuzz, CalibrationFuzz). A mutation edits
 * one entry of a corpus by byte flips, extreme-value token
 * replacement, line deletion and line splices from any entry; the
 * same seed always yields the same inputs.
 */

#ifndef DHDL_TESTS_FUZZ_MUTATOR_HH
#define DHDL_TESTS_FUZZ_MUTATOR_HH

#include <chrono>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ml/rng.hh"

namespace dhdl::fuzz {

using Lines = std::vector<std::string>;

inline Lines
splitLines(std::string_view text)
{
    Lines lines;
    std::istringstream is{std::string(text)};
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

/** Replace one token of `line` (a run outside `seps`) by `to`. */
inline void
replaceToken(std::string& line, ml::Rng& rng, const char* seps,
             const std::string& to)
{
    std::vector<size_t> starts;
    for (size_t i = 0; i < line.size(); ++i) {
        bool sep = std::strchr(seps, line[i]) != nullptr;
        bool after_sep = i == 0 || std::strchr(seps, line[i - 1]);
        if (!sep && after_sep)
            starts.push_back(i);
    }
    if (starts.empty())
        return;
    size_t b = starts[size_t(rng.uniformInt(0, int64_t(starts.size()) - 1))];
    size_t e = line.find_first_of(seps, b);
    line.replace(b, e == std::string::npos ? std::string::npos : e - b, to);
}

/** Mostly one edit of one corpus entry, sometimes two or three.
 *  Tokens are runs outside `seps`; `extremes` replace them. */
inline std::string
mutate(ml::Rng& rng, const std::vector<Lines>& corpus, const char* seps,
       std::span<const char* const> extremes)
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
            replaceToken(line, rng, seps, extremes[pick(extremes.size())]);
            break;
          case 2: // Line deletion.
            lines.erase(lines.begin() + std::ptrdiff_t(at));
            break;
          default: { // Splice in a line of any corpus entry.
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

/** check()'s reason an input breaks an invariant, plus a failure when
 *  it takes longer than `bound` seconds. */
template <class Check>
std::string
timed(Check check, double bound)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::string why = check();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (why.empty() && s > bound)
        why = "took " + std::to_string(s) + " s, over the " +
              std::to_string(bound) + " s bound";
    return why;
}

} // namespace dhdl::fuzz

#endif // DHDL_TESTS_FUZZ_MUTATOR_HH
