/**
 * Crash safety end to end: a worker process is SIGKILLed mid-sweep
 * (by the fault-injection harness — a real, unblockable kill -9),
 * then the sweep resumes from the durable checkpoint. The final
 * Pareto front, checkpoint bytes and canonical diagnostics must be
 * identical to an uninterrupted run, at 1 and at 4 threads, and no
 * completed point may be lost or evaluated twice.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include "apps/apps.hh"
#include "core/faultinject.hh"
#include "dse/checkpoint.hh"
#include "dse/explorer.hh"

#include "canonical_diags.hh"

namespace dhdl::dse {
namespace {

Explorer&
explorer()
{
    static est::RuntimeEstimator rt;
    static Explorer ex(est::calibratedEstimator(), rt);
    return ex;
}

ExploreConfig
baseConfig(int threads)
{
    ExploreConfig cfg;
    cfg.maxPoints = 60;
    cfg.seed = 777;
    cfg.threads = threads;
    // Small batches so the killed child has durable progress.
    cfg.checkpointEvery = 5;
    return cfg;
}

void
checkKillAndResume(int threads)
{
    Design d = apps::buildDotproduct({960000});
    const std::string path = ::testing::TempDir() +
                             "dhdl_crashsafe_" +
                             std::to_string(threads) + ".ckpt";
    std::remove(path.c_str());

    // Reference: the uninterrupted run.
    auto ref = explorer().explore(d.graph(), baseConfig(threads));
    ParamSpace space(d.graph());
    const CheckpointMeta meta = makeCheckpointMeta(
        d.graph(), space, baseConfig(threads).seed,
        ref.points.size());

    // The estimators above are calibrated before the fork, so the
    // child only explores and dies.
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: arm a real SIGKILL after the 12th evaluation and
        // run with checkpointing on. No gtest machinery may run in
        // here after explore(): on the off chance the crash does not
        // fire, exit by hand.
        fault::configure("crash-after-evals=12");
        auto cfg = baseConfig(threads);
        cfg.checkpointPath = path;
        explorer().explore(d.graph(), cfg);
        ::_exit(42); // only reached if the kill failed
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited instead of dying; code "
        << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // The kill landed between batches: the checkpoint on disk must
    // be a complete, loadable file with partial coverage.
    {
        std::vector<DesignPoint> probe(ref.points.size());
        for (size_t i = 0; i < probe.size(); ++i)
            probe[i].binding = ref.points[i].binding;
        DiagSink sink;
        CheckpointLoadStats ls;
        ASSERT_TRUE(loadCheckpointFile(path, d.graph(), meta, probe,
                                       sink, &ls));
        EXPECT_GT(ls.restored, 0u) << "no durable progress survived";
        EXPECT_LT(ls.restored, ref.stats.evaluated)
            << "kill fired after the sweep completed";
        EXPECT_EQ(ls.truncated + ls.corrupt, 0u)
            << "atomic write protocol left a damaged file";
    }

    // Resume in this process: every restored point is reused (not
    // re-evaluated), every missing point is evaluated exactly once,
    // and the result converges byte-identically to the reference.
    auto cfg = baseConfig(threads);
    cfg.checkpointPath = path;
    cfg.resume = true;
    auto res = explorer().explore(d.graph(), cfg);
    EXPECT_GT(res.stats.resumed, 0u);
    EXPECT_EQ(res.stats.evaluated, res.stats.total);
    EXPECT_EQ(res.stats.ckptTruncated, 0u);
    EXPECT_EQ(res.stats.ckptCorrupt, 0u);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points))
        << "resumed sweep diverged from uninterrupted run";
    EXPECT_EQ(canonicalDiags(res.diags), canonicalDiags(ref.diags));
    EXPECT_EQ(res.pareto, ref.pareto);
    std::remove(path.c_str());
}

TEST(CrashSafeTest, KillDuringExploreResumesIdenticallySerial)
{
    checkKillAndResume(1);
}

TEST(CrashSafeTest, KillDuringExploreResumesIdenticallyThreaded)
{
    checkKillAndResume(4);
}

/**
 * Kill/resume cycles compose: crash the worker repeatedly, resuming
 * each time, until the sweep completes. Progress is monotone (the
 * checkpoint never loses restored points) and the final result is
 * the uninterrupted one.
 */
TEST(CrashSafeTest, RepeatedCrashesStillConverge)
{
    Design d = apps::buildDotproduct({960000});
    const std::string path =
        ::testing::TempDir() + "dhdl_crashloop.ckpt";
    std::remove(path.c_str());
    auto ref = explorer().explore(d.graph(), baseConfig(1));
    ParamSpace space(d.graph());
    const CheckpointMeta meta = makeCheckpointMeta(
        d.graph(), space, baseConfig(1).seed, ref.points.size());

    size_t lastRestored = 0;
    bool completed = false;
    for (int attempt = 0; attempt < 32 && !completed; ++attempt) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            fault::configure("crash-after-evals=8");
            auto cfg = baseConfig(1);
            cfg.checkpointPath = path;
            cfg.resume = true;
            explorer().explore(d.graph(), cfg);
            ::_exit(0); // sweep finished before the 8th fresh eval
        }
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        completed = WIFEXITED(status) && WEXITSTATUS(status) == 0;

        std::vector<DesignPoint> probe(ref.points.size());
        for (size_t i = 0; i < probe.size(); ++i)
            probe[i].binding = ref.points[i].binding;
        DiagSink sink;
        CheckpointLoadStats ls;
        ASSERT_TRUE(loadCheckpointFile(path, d.graph(), meta, probe,
                                       sink, &ls));
        EXPECT_GE(ls.restored, lastRestored)
            << "a crash lost previously durable points";
        lastRestored = ls.restored;
    }
    ASSERT_TRUE(completed) << "sweep never finished in 32 attempts";

    auto cfg = baseConfig(1);
    cfg.checkpointPath = path;
    cfg.resume = true;
    auto res = explorer().explore(d.graph(), cfg);
    EXPECT_EQ(res.stats.resumed, ref.stats.evaluated);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
    EXPECT_EQ(res.pareto, ref.pareto);
    std::remove(path.c_str());
}

} // namespace
} // namespace dhdl::dse
