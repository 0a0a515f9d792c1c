/**
 * Golden-equivalence suite for the evaluation pipeline. The explorer
 * promises bit-identical points, diagnostics ordering and Pareto
 * fronts for a fixed seed at any thread count; this suite pins that
 * promise to a committed fixture so a refactor of the evaluation
 * path (instance construction, estimators, evaluator staging) cannot
 * silently change results. obs records spans and counters on every
 * run, so the fixtures also pin that recording never perturbs
 * results.
 *
 * The fixture is the checkpoint CSV of a small GDA exploration plus
 * its Pareto indices. Regenerate with:
 *
 *   DHDL_UPDATE_GOLDEN=1 ./dse_tests --gtest_filter='Golden*'
 *
 * and commit the files under tests/dse/golden/ — but only when an
 * intentional model change alters the expected numbers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "apps/apps.hh"
#include "core/parser.hh"
#include "core/printer.hh"
#include "dse/explorer.hh"

#ifndef DHDL_TEST_DATA_DIR
#define DHDL_TEST_DATA_DIR "."
#endif

namespace dhdl::dse {
namespace {

std::string
goldenDir()
{
    return std::string(DHDL_TEST_DATA_DIR) + "/golden";
}

std::string
readFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

bool
updateMode()
{
    const char* v = std::getenv("DHDL_UPDATE_GOLDEN");
    return v && *v && std::string(v) != "0";
}

class GoldenFixture : public ::testing::Test
{
  protected:
    static Explorer&
    explorer()
    {
        static est::RuntimeEstimator rt;
        static Explorer ex(est::calibratedEstimator(), rt);
        return ex;
    }

    /** The pinned exploration: small GDA sweep, fixed seed. */
    static ExploreResult
    runPinnedOn(const Graph& g, int threads, const std::string& ckpt)
    {
        ExploreConfig cfg;
        cfg.maxPoints = 200;
        cfg.threads = threads;
        cfg.checkpointPath = ckpt;
        // One final checkpoint write covering every point.
        cfg.checkpointEvery = 1 << 30;
        return explorer().explore(g, cfg);
    }

    static ExploreResult
    runPinned(int threads, const std::string& ckpt)
    {
        Design d = apps::buildGda({9600, 96});
        return runPinnedOn(d.graph(), threads, ckpt);
    }

    static std::string
    renderPareto(const ExploreResult& res)
    {
        std::ostringstream os;
        for (size_t i : res.pareto)
            os << i << "\n";
        return os.str();
    }

    /** Diagnostics as a stable text form (order is part of the
     *  contract). */
    static std::string
    renderDiags(const ExploreResult& res)
    {
        std::ostringstream os;
        for (const auto& d : res.diags)
            os << d.pointIndex << "|" << d.stage << "|"
               << diagCodeName(d.code) << "|" << d.message << "\n";
        return os.str();
    }

    static void
    checkAgainstGolden(int threads)
    {
        std::string ckpt = testing::TempDir() + "golden_gda_t" +
                           std::to_string(threads) + ".ckpt";
        auto res = runPinned(threads, ckpt);
        ASSERT_GT(res.stats.evaluated, 0u);

        std::string got_ckpt = readFile(ckpt);
        std::string got_pareto = renderPareto(res);
        std::string got_diags = renderDiags(res);
        std::remove(ckpt.c_str());
        ASSERT_FALSE(got_ckpt.empty());

        if (updateMode() && threads == 1) {
            std::ofstream(goldenDir() + "/gda_explore.ckpt",
                          std::ios::binary)
                << got_ckpt;
            std::ofstream(goldenDir() + "/gda_pareto.txt",
                          std::ios::binary)
                << got_pareto;
            std::ofstream(goldenDir() + "/gda_diags.txt",
                          std::ios::binary)
                << got_diags;
            GTEST_SKIP() << "golden fixture updated";
        }

        std::string want_ckpt =
            readFile(goldenDir() + "/gda_explore.ckpt");
        ASSERT_FALSE(want_ckpt.empty())
            << "missing fixture " << goldenDir()
            << "/gda_explore.ckpt (run with DHDL_UPDATE_GOLDEN=1)";
        // Byte-identical checkpoint CSV: same points, same order, same
        // formatting, independent of thread count.
        EXPECT_EQ(want_ckpt, got_ckpt) << "threads=" << threads;
        EXPECT_EQ(readFile(goldenDir() + "/gda_pareto.txt"), got_pareto)
            << "threads=" << threads;
        EXPECT_EQ(readFile(goldenDir() + "/gda_diags.txt"), got_diags)
            << "threads=" << threads;
    }
};

TEST_F(GoldenFixture, SerialMatchesCommittedFixture)
{
    checkAgainstGolden(1);
}

TEST_F(GoldenFixture, FourThreadsMatchCommittedFixture)
{
    checkAgainstGolden(4);
}

/**
 * The file-driven pipeline makes the same promise: exploring the
 * committed `.dhdl` serialization of the pinned design reproduces
 * the checkpoint, Pareto front and diagnostics fixtures exactly —
 * `dhdlc explore gda.dhdl` is bit-for-bit `dhdlc explore gda`.
 */
TEST_F(GoldenFixture, ParsedDesignFileReproducesFixture)
{
    std::string path = goldenDir() + "/gda_design.dhdl";
    if (updateMode()) {
        Design d = apps::buildGda({9600, 96});
        std::ofstream(path, std::ios::binary) << emitIR(d.graph());
        GTEST_SKIP() << "golden fixture updated";
    }

    std::string text = readFile(path);
    ASSERT_FALSE(text.empty())
        << "missing fixture " << path
        << " (run with DHDL_UPDATE_GOLDEN=1)";
    // The fixture itself is canonical text.
    ParseResult res = parseIR(text);
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_EQ(emitIR(*res.graph), text);

    std::string ckpt = testing::TempDir() + "golden_gda_parsed.ckpt";
    auto got = runPinnedOn(*res.graph, 1, ckpt);
    std::string got_ckpt = readFile(ckpt);
    std::remove(ckpt.c_str());
    ASSERT_FALSE(got_ckpt.empty());
    EXPECT_EQ(readFile(goldenDir() + "/gda_explore.ckpt"), got_ckpt);
    EXPECT_EQ(readFile(goldenDir() + "/gda_pareto.txt"),
              renderPareto(got));
    EXPECT_EQ(readFile(goldenDir() + "/gda_diags.txt"),
              renderDiags(got));
}

} // namespace
} // namespace dhdl::dse
