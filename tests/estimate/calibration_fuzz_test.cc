/**
 * Deterministic mutation fuzzing of the calibration loader,
 * AreaEstimator(device, stream) over ml/serialize. IRFuzz's seeded
 * mutator (fuzz_mutator.hh) edits the embedded calibration by byte
 * flips, extreme-value token replacement, line deletion and line
 * splices within the file. Every input must keep two invariants:
 *
 *  1. the loader returns or throws FatalError, nothing else;
 *  2. an estimator it returns estimates three random template lists
 *     and, through the batched path, gda at its defaults, returning or
 *     throwing FatalError (a class the file lost is uncharacterized),
 *     with no sanitizer report.
 *
 * Each input must also finish within kInputSeconds. The seed and
 * budget are fixed, so every run feeds the same inputs. An input that
 * once broke an invariant is kept under tests/estimate/fuzz/ and
 * replayed by CalibrationFuzz.RegressionInputsKeepInvariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/instance.hh"
#include "apps/apps.hh"
#include "core/error.hh"
#include "estimate/area_estimator.hh"
#include "fpga/characterize.hh"
#include "ml/rng.hh"
#include "../fuzz_mutator.hh"

#ifndef DHDL_ESTIMATE_DATA_DIR
#define DHDL_ESTIMATE_DATA_DIR "."
#endif

namespace dhdl::est {
namespace {

constexpr int kBudget = 3000;

/** Seconds one input may spend in timedViolation(): over 200x the
 *  mean input under a Debug ASan+UBSan build (9 ms), so only a hang
 *  or a blow-up in what a file can cost trips it. */
constexpr double kInputSeconds = 2.0;
constexpr uint64_t kSeed = 0xca11b4a7eull;

/** Values on or past the edge of what a count, a layer size or a
 *  weight accepts. */
const char* const kExtremes[] = {
    "-1", "0", "1", "2", "12", "64", "1000000",
    "9223372036854775807", "1e308", "nan", "v2", "",
};

/** gda at its default binding, as the batched estimator takes it. */
struct BatchInput {
    Design design = apps::buildGda();
    DesignPlan plan{design.graph()};
    InstPool insts;

    BatchInput() { insts.assign(0, plan, design.graph().params().defaults()); }
};

/** Why `step` breaks an invariant: it may only return or throw
 *  FatalError. */
template <class Step>
std::string
stepViolation(const char* what, Step step)
{
    try {
        step();
    } catch (const FatalError&) {
    } catch (const std::exception& e) {
        return std::string(what) + " threw a non-FatalError: " + e.what();
    }
    return {};
}

/** Why `input` breaks an invariant; empty when it keeps them all. */
std::string
violation(const std::string& input)
{
    static const BatchInput batch;
    const fpga::Device dev = fpga::Device::maia();
    std::istringstream is(input);
    std::optional<AreaEstimator> est;
    std::string why = stepViolation("the loader",
                                    [&] { est.emplace(dev, is); });
    if (!est)
        return why;
    for (uint64_t s : {11ull, 222ull, 3333ull}) {
        why = stepViolation("estimateList", [&] {
            est->estimateList(fpga::randomTemplateList(dev, s));
        });
        if (!why.empty())
            return why;
    }
    return stepViolation("estimateBatch", [&] {
        const AreaBatchPlan bp = est->makeBatchPlan(batch.plan);
        AreaBatchWorkspace ws;
        AreaEstimate out;
        if (bp.ok())
            est->estimateBatch(bp, batch.insts, 1, ws, &out);
    });
}

/** violation(), plus a failure when the input takes longer than
 *  kInputSeconds. */
std::string
timedViolation(const std::string& input)
{
    return fuzz::timed([&] { return violation(input); }, kInputSeconds);
}

TEST(CalibrationFuzz, MutatedCalibrationsKeepLoaderInvariants)
{
    const std::vector<fuzz::Lines> corpus = {
        fuzz::splitLines(embeddedCalibration())};
    ASSERT_FALSE(corpus.front().empty());
    ml::Rng rng(kSeed);
    for (int i = 0; i < kBudget; ++i) {
        const std::string input = fuzz::mutate(rng, corpus, " ", kExtremes);
        const std::string why = timedViolation(input);
        ASSERT_TRUE(why.empty()) << "input " << i << ": " << why;
    }
}

TEST(CalibrationFuzz, RegressionInputsKeepInvariants)
{
    std::vector<std::filesystem::path> files;
    for (const auto& e : std::filesystem::directory_iterator(
             std::string(DHDL_ESTIMATE_DATA_DIR) + "/fuzz"))
        files.push_back(e.path());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    for (const auto& f : files) {
        std::ifstream is(f, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        EXPECT_EQ(timedViolation(os.str()), "") << f;
    }
}

} // namespace
} // namespace dhdl::est
