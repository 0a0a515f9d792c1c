/**
 * The durable checkpoint format: atomic write protocol, header
 * identity validation, per-record CRC recovery (torn tail vs mid-file
 * corruption), refusal of the retired v1 format, number round trips,
 * render-once writer equivalence, and diagnostic fidelity of restored
 * failures.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "apps/apps.hh"
#include "core/checksum.hh"
#include "core/faultinject.hh"
#include "dse/checkpoint.hh"
#include "dse/explorer.hh"
#include "dse/shard.hh"

namespace dhdl::dse {
namespace {

Explorer&
explorer()
{
    static est::RuntimeEstimator rt;
    static Explorer ex(est::calibratedEstimator(), rt);
    return ex;
}

std::string
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
spit(const std::string& path, const std::string& bytes)
{
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    os << bytes;
}

struct Sweep {
    Design design = apps::buildDotproduct({960000});
    ExploreConfig cfg;

    Sweep()
    {
        cfg.maxPoints = 60;
        cfg.seed = 1234;
    }

    ExploreResult explore() const
    {
        return explorer().explore(design.graph(), cfg);
    }

    CheckpointMeta meta(const ExploreResult& ref) const
    {
        ParamSpace space(design.graph());
        return makeCheckpointMeta(design.graph(), space, cfg.seed,
                                  ref.points.size());
    }
};

class CheckpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override
    {
        fault::reset();
        std::remove(path().c_str());
        std::remove((path() + ".tmp").c_str());
    }
    std::string path() const
    {
        return ::testing::TempDir() + "dhdl_ckpt_test.ckpt";
    }
};

TEST_F(CheckpointTest, RoundTripRestoresEveryPointExactly)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));
    // The atomic protocol leaves no temp file behind.
    EXPECT_FALSE(std::ifstream(path() + ".tmp").good());

    // Restore into a fresh copy of the same sample set.
    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    EXPECT_EQ(res.stats.resumed, ref.stats.evaluated);
    EXPECT_EQ(res.stats.ckptTruncated, 0u);
    EXPECT_EQ(res.stats.ckptCorrupt, 0u);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
    EXPECT_EQ(res.pareto, ref.pareto);
}

TEST_F(CheckpointTest, TornTailIsTruncatedAndReEvaluated)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));

    // Cut the final record in half — the file a writer killed
    // mid-append would leave.
    std::string bytes = slurp(path());
    const size_t lastNl = bytes.rfind('\n', bytes.size() - 2);
    ASSERT_NE(lastNl, std::string::npos);
    spit(path(), bytes.substr(0, lastNl + 1 +
                                      (bytes.size() - lastNl) / 2));

    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    EXPECT_EQ(res.stats.ckptTruncated, 1u);
    EXPECT_EQ(res.stats.ckptCorrupt, 0u);
    EXPECT_EQ(res.stats.resumed, ref.stats.evaluated - 1);
    // The torn point re-evaluates; the result converges exactly.
    EXPECT_EQ(res.stats.evaluated, ref.stats.evaluated);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
    EXPECT_EQ(res.pareto, ref.pareto);
}

TEST_F(CheckpointTest, MidFileCorruptionIsSkippedAndCounted)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));

    // Flip one byte in the first data record (line 4 of the file).
    std::string bytes = slurp(path());
    size_t pos = 0;
    for (int nl = 0; nl < 3; ++nl)
        pos = bytes.find('\n', pos) + 1;
    bytes[pos] = bytes[pos] == 'x' ? 'y' : 'x';
    spit(path(), bytes);

    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    EXPECT_EQ(res.stats.ckptCorrupt, 1u);
    EXPECT_EQ(res.stats.ckptTruncated, 0u);
    EXPECT_EQ(res.stats.resumed, ref.stats.evaluated - 1);
    EXPECT_EQ(res.stats.evaluated, ref.stats.evaluated);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
}

TEST_F(CheckpointTest, MismatchedIdentityIsRefusedStructurally)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));

    // Same file, different seed: the load must refuse outright.
    CheckpointMeta other = meta;
    other.seed = meta.seed + 1;
    std::vector<DesignPoint> fresh(ref.points.size());
    for (size_t i = 0; i < fresh.size(); ++i)
        fresh[i].binding = ref.points[i].binding;
    DiagSink sink;
    CheckpointLoadStats ls;
    Status st = loadCheckpointFile(path(), run.design.graph(), other,
                                   fresh, sink, &ls);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.diag().code, DiagCode::CheckpointMismatch);
    EXPECT_EQ(ls.restored, 0u);
    for (const auto& p : fresh)
        EXPECT_FALSE(p.evaluated);

    // A different design hash is refused the same way.
    CheckpointMeta wrongDesign = meta;
    wrongDesign.designHash ^= 1;
    Status st2 = loadCheckpointFile(path(), run.design.graph(),
                                    wrongDesign, fresh, sink);
    ASSERT_FALSE(st2.ok());
    EXPECT_EQ(st2.diag().code, DiagCode::CheckpointMismatch);
}

TEST_F(CheckpointTest, MissingFileIsIoErrorNotMismatch)
{
    Sweep run;
    auto ref = run.explore();
    std::vector<DesignPoint> fresh(ref.points.size());
    DiagSink sink;
    Status st = loadCheckpointFile(path() + ".nope",
                                   run.design.graph(), run.meta(ref),
                                   fresh, sink);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.diag().code, DiagCode::CheckpointIo);
}

TEST_F(CheckpointTest, V1FileIsRefusedAsUnsupported)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);

    // A v1 file (no CRC, no design/space hashes) whose identity
    // fields all match this run.
    std::ostringstream os;
    os << "# dhdl-explore-checkpoint v1\n";
    os << "# seed=" << meta.seed << " total=" << meta.total
       << " nparams=" << meta.nparams << "\n";
    os << "0,1,0,ok,1,1,1,1,1,100,1,\n";
    spit(path(), os.str());

    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    // Refused like any unknown format: warn, start fresh, evaluate
    // everything.
    EXPECT_EQ(res.stats.resumed, 0u);
    EXPECT_EQ(res.stats.evaluated, res.stats.total);
    int refusals = 0;
    for (const auto& d : res.diags) {
        if (d.code != DiagCode::CheckpointMismatch)
            continue;
        ++refusals;
        EXPECT_EQ(d.severity, DiagSeverity::Warning);
        EXPECT_NE(d.message.find("format v1 is not supported"),
                  std::string::npos)
            << d.message;
    }
    EXPECT_EQ(refusals, 1);
}

/** The historical record renderer (ostringstream at precision 17),
 *  kept as the byte reference for the to_chars one. */
std::string
referenceLine(size_t index, const DesignPoint& p)
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << index << "," << (p.valid ? 1 : 0) << ","
       << (p.failed ? 1 : 0) << "," << diagCodeName(p.failCode) << ","
       << p.failStage << "," << p.area.alms << "," << p.area.luts
       << "," << p.area.regs << "," << p.area.dsps << ","
       << p.area.brams << "," << p.cycles << ",";
    for (size_t j = 0; j < p.binding.values.size(); ++j)
        os << (j ? " " : "") << p.binding.values[j];
    os << "," << p.failReason;
    const std::string payload = os.str();
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x", unsigned(crc32(payload)));
    return payload + "," + crc + "\n";
}

uint64_t
bits(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Fresh points holding `ref`'s sample set, nothing evaluated. */
std::vector<DesignPoint>
unevaluated(const std::vector<DesignPoint>& ref)
{
    std::vector<DesignPoint> fresh(ref.size());
    for (size_t i = 0; i < fresh.size(); ++i)
        fresh[i].binding = ref[i].binding;
    return fresh;
}

TEST_F(CheckpointTest, NumbersRenderAsBeforeAndReloadBitIdentical)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);
    const double values[] = {
        0.0,
        -0.0,
        0.1,
        1e-300,
        1e300,
        9007199254740993.0, // 2^53 + 1
        2.2000000000000001e-310, // subnormal
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    std::vector<DesignPoint> points = ref.points;
    ASSERT_GE(points.size(), std::size(values));
    for (size_t k = 0; k < std::size(values); ++k) {
        DesignPoint& p = points[k];
        p.area.alms = p.area.luts = p.area.regs = values[k];
        p.area.dsps = p.area.brams = p.cycles = values[k];
    }

    std::string body;
    size_t evaluated = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].evaluated) {
            body += referenceLine(i, points[i]);
            ++evaluated;
        }
    }
    EXPECT_EQ(renderCheckpoint(meta, points),
              renderCheckpoint(meta, {}) + body);

    ASSERT_TRUE(writeCheckpointFile(path(), meta, points));
    std::vector<DesignPoint> back = unevaluated(points);
    DiagSink sink;
    CheckpointLoadStats ls;
    ASSERT_TRUE(loadCheckpointFile(path(), run.design.graph(), meta,
                                   back, sink, &ls)
                    .ok());
    EXPECT_EQ(ls.restored, evaluated);
    EXPECT_EQ(ls.corrupt + ls.truncated + ls.stale, 0u);
    for (size_t k = 0; k < std::size(values); ++k) {
        SCOPED_TRACE("value " + std::to_string(k));
        const DesignPoint& p = back[k];
        ASSERT_TRUE(p.evaluated);
        for (double v : {p.area.alms, p.area.luts, p.area.regs,
                         p.area.dsps, p.area.brams, p.cycles})
            EXPECT_EQ(bits(v), bits(values[k]));
    }
}

TEST_F(CheckpointTest, TrailingGarbageInANumberIsDamage)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);
    std::string bytes = renderCheckpoint(meta, ref.points);

    // Forge the first record: alms becomes "1.5abc", and the CRC is
    // recomputed so only the number itself is wrong.
    size_t lo = 0;
    for (int nl = 0; nl < 3; ++nl)
        lo = bytes.find('\n', lo) + 1;
    const size_t hi = bytes.find('\n', lo);
    std::string payload =
        bytes.substr(lo, bytes.rfind(',', hi) - lo);
    size_t at = 0;
    for (int c = 0; c < 5; ++c)
        at = payload.find(',', at) + 1;
    payload.replace(at, payload.find(',', at) - at, "1.5abc");
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x", unsigned(crc32(payload)));
    bytes.replace(lo, hi - lo, payload + "," + crc);
    spit(path(), bytes);

    std::vector<DesignPoint> back = unevaluated(ref.points);
    DiagSink sink;
    CheckpointLoadStats ls;
    ASSERT_TRUE(loadCheckpointFile(path(), run.design.graph(), meta,
                                   back, sink, &ls)
                    .ok());
    EXPECT_EQ(ls.corrupt, 1u);
    EXPECT_EQ(ls.restored, ref.stats.evaluated - 1);
    EXPECT_FALSE(back[0].evaluated);
}

TEST_F(CheckpointTest, RenameFailureLeavesNoTempFile)
{
    // The checkpoint path is an existing directory: the temp file is
    // written and synced, then rename() fails.
    const std::string dir = path() + ".dir";
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    Sweep run;
    auto ref = run.explore();
    EXPECT_FALSE(writeCheckpointFile(dir, run.meta(ref), ref.points));
    EXPECT_FALSE(std::ifstream(dir + ".tmp").good());

    run.cfg.checkpointPath = dir;
    auto res = run.explore();
    EXPECT_EQ(res.stats.evaluated, res.stats.total);
    EXPECT_FALSE(std::ifstream(dir + ".tmp").good());
    int warnings = 0;
    for (const auto& d : res.diags)
        warnings += d.code == DiagCode::CheckpointIo &&
                    d.severity == DiagSeverity::Warning;
    EXPECT_EQ(warnings, 1);
    ::rmdir(dir.c_str());
}

TEST_F(CheckpointTest, RestoredFailureDiagsMatchLiveRun)
{
    Sweep run;
    // Deterministically fail two points inside the isolation
    // boundary, in both the reference run and the resumed run.
    run.cfg.preEvaluate = [](const ParamBinding&, size_t idx) {
        if (idx == 3 || idx == 11)
            fatal("injected fault at point " + std::to_string(idx),
                  DiagCode::AreaEstimationFailed);
    };
    auto ref = run.explore();
    ASSERT_EQ(ref.stats.failed, 2u);
    const CheckpointMeta meta = run.meta(ref);
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));

    Sweep resumed;
    resumed.cfg.checkpointPath = path();
    resumed.cfg.resume = true;
    // No preEvaluate hook: the failures must come back from the
    // checkpoint alone, byte-identical in canonical form.
    auto res = resumed.explore();
    EXPECT_EQ(res.stats.resumed, ref.stats.evaluated);
    EXPECT_EQ(res.stats.failed, 2u);
    EXPECT_EQ(canonicalDiags(res.diags), canonicalDiags(ref.diags));
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
}

TEST_F(CheckpointTest, InjectedTornWriteIsRecoveredOnResume)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);

    // The harness tears the first checkpoint write mid-record (and
    // bypasses the atomic rename, as a killed non-atomic writer
    // would).
    fault::configure("torn-checkpoint=1");
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));
    fault::reset();

    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    EXPECT_EQ(res.stats.ckptTruncated, 1u);
    EXPECT_EQ(res.stats.evaluated, ref.stats.evaluated);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
}

TEST_F(CheckpointTest, InjectedRecordCorruptionIsRecoveredOnResume)
{
    Sweep run;
    auto ref = run.explore();
    const CheckpointMeta meta = run.meta(ref);

    fault::configure("corrupt-record=2");
    ASSERT_TRUE(writeCheckpointFile(path(), meta, ref.points));
    fault::reset();

    run.cfg.checkpointPath = path();
    run.cfg.resume = true;
    auto res = run.explore();
    EXPECT_EQ(res.stats.ckptCorrupt, 1u);
    EXPECT_EQ(res.stats.evaluated, ref.stats.evaluated);
    EXPECT_EQ(renderCheckpoint(meta, res.points),
              renderCheckpoint(meta, ref.points));
}

// ------------------------------------------- render-once writer

/** Every checkpoint write of one explore: the file's bytes right
 *  after the write, and renderCheckpoint() of the points it covered
 *  (what a fresh writer renders for the same state). */
struct WriteLog {
    std::vector<std::string> file;
    std::vector<std::string> want;
};

/** Arm cfg.onCheckpoint to fill `log`; `g` must outlive the run. */
void
logWrites(ExploreConfig& cfg, const Graph& g, WriteLog& log)
{
    std::optional<CheckpointMeta> meta;
    cfg.onCheckpoint = [&log, &g, meta, path = cfg.checkpointPath,
                        seed = cfg.seed, strategy = cfg.strategy](
                           const std::vector<DesignPoint>& points,
                           bool written) mutable {
        if (!meta) {
            meta = makeCheckpointMeta(g, ParamSpace(g), seed,
                                      points.size());
            meta->strategy = strategyName(strategy);
        }
        EXPECT_TRUE(written);
        log.file.push_back(slurp(path));
        log.want.push_back(renderCheckpoint(*meta, points));
    };
}

/** Writes `from`.. of `log` each equal a fresh render. */
void
expectFreshRenders(const WriteLog& log, size_t from = 0)
{
    ASSERT_GE(log.file.size(), 2u);
    for (size_t k = from; k < log.file.size(); ++k)
        EXPECT_EQ(log.file[k], log.want[k]) << "write " << k;
}

ExploreConfig
writerConfig(StrategyKind strategy)
{
    ExploreConfig cfg;
    cfg.maxPoints = 300;
    cfg.seed = 4321;
    cfg.checkpointEvery = 37;
    cfg.strategy = strategy;
    cfg.surrogate.initialPoints = 32;
    cfg.surrogate.roundGrowth = 2.0;
    cfg.surrogate.trainEpochs = 20;
    return cfg;
}

TEST_F(CheckpointTest, EveryWriteEqualsAFreshRender)
{
    Design d = apps::buildDotproduct({960000});
    for (StrategyKind strategy :
         {StrategyKind::Random, StrategyKind::Surrogate}) {
        for (int threads : {1, 4}) {
            // Neither cadence is a multiple of the 64-point batch,
            // so every checkpoint slice ends in a short batch.
            for (int64_t every : {7, 37}) {
                SCOPED_TRACE(std::string(strategyName(strategy)) +
                             " threads=" + std::to_string(threads) +
                             " every=" + std::to_string(every));
                std::remove(path().c_str());
                ExploreConfig cfg = writerConfig(strategy);
                cfg.threads = threads;
                cfg.checkpointEvery = every;
                cfg.checkpointPath = path();
                // Failures are records too (failstage, reason).
                cfg.preEvaluate = [](const ParamBinding&, size_t idx) {
                    if (idx % 29 == 3)
                        fatal("injected fault at point " +
                                  std::to_string(idx),
                              DiagCode::AreaEstimationFailed);
                };
                WriteLog log;
                logWrites(cfg, d.graph(), log);
                auto res = explorer().explore(d.graph(), cfg);
                EXPECT_GT(res.stats.failed, 0u);
                expectFreshRenders(log);
            }
        }
    }
}

TEST_F(CheckpointTest, RestoredRecordsEnterTheWriterCache)
{
    Design d = apps::buildDotproduct({960000});
    for (StrategyKind strategy :
         {StrategyKind::Random, StrategyKind::Surrogate}) {
        SCOPED_TRACE(strategyName(strategy));
        std::remove(path().c_str());
        ExploreConfig cfg = writerConfig(strategy);
        auto ref = explorer().explore(d.graph(), cfg);
        CheckpointMeta meta = makeCheckpointMeta(
            d.graph(), ParamSpace(d.graph()), cfg.seed,
            ref.points.size());
        meta.strategy = strategyName(strategy);

        // A partial file: every third evaluated point.
        std::vector<DesignPoint> partial = ref.points;
        size_t kept = 0;
        for (size_t i = 0; i < partial.size(); ++i) {
            if (i % 3 != 0)
                partial[i].evaluated = false;
            kept += partial[i].evaluated;
        }
        ASSERT_TRUE(writeCheckpointFile(path(), meta, partial));

        cfg.checkpointPath = path();
        cfg.resume = true;
        WriteLog log;
        logWrites(cfg, d.graph(), log);
        auto res = explorer().explore(d.graph(), cfg);
        EXPECT_EQ(res.stats.resumed, kept);
        expectFreshRenders(log);
        if (strategy == StrategyKind::Random) {
            EXPECT_EQ(log.file.back(),
                      renderCheckpoint(meta, ref.points));
        }
    }
}

TEST_F(CheckpointTest, TimeBudgetHaltThenResumeWritesFreshRenders)
{
    Design d = apps::buildDotproduct({960000});
    ExploreConfig cfg = writerConfig(StrategyKind::Random);
    auto ref = explorer().explore(d.graph(), cfg);

    cfg.checkpointPath = path();
    cfg.timeBudgetSeconds = 0.05;
    WriteLog halted;
    logWrites(cfg, d.graph(), halted);
    // Outlast the budget at the first write, so the run halts early.
    auto inner = cfg.onCheckpoint;
    cfg.onCheckpoint = [inner](const std::vector<DesignPoint>& pts,
                               bool written) {
        inner(pts, written);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    };
    auto first = explorer().explore(d.graph(), cfg);
    ASSERT_TRUE(first.stats.timeBudgetHit);
    ASSERT_LT(first.stats.evaluated, first.stats.total);
    expectFreshRenders(halted);

    cfg.timeBudgetSeconds = 0;
    cfg.resume = true;
    WriteLog resumed;
    logWrites(cfg, d.graph(), resumed);
    auto second = explorer().explore(d.graph(), cfg);
    EXPECT_EQ(second.stats.resumed, first.stats.evaluated);
    EXPECT_EQ(second.stats.evaluated, second.stats.total);
    expectFreshRenders(resumed);
    EXPECT_EQ(second.pareto, ref.pareto);
}

TEST_F(CheckpointTest, InjectedFaultsDamageOneWriteNotTheCache)
{
    Design d = apps::buildDotproduct({960000});

    // corrupt-record stays armed until reset: disarm it after the
    // first write, so only that write may carry the flipped byte.
    {
        ExploreConfig cfg = writerConfig(StrategyKind::Random);
        cfg.checkpointPath = path();
        WriteLog log;
        logWrites(cfg, d.graph(), log);
        auto inner = cfg.onCheckpoint;
        cfg.onCheckpoint = [inner](const std::vector<DesignPoint>& pts,
                                   bool written) {
            inner(pts, written);
            fault::reset();
        };
        fault::configure("corrupt-record=2");
        explorer().explore(d.graph(), cfg);
        ASSERT_GE(log.file.size(), 2u);
        const std::string& bad = log.file[0];
        const std::string& want = log.want[0];
        ASSERT_EQ(bad.size(), want.size());
        size_t diffs = 0, at = 0;
        for (size_t i = 0; i < bad.size(); ++i)
            if (bad[i] != want[i])
                ++diffs, at = i;
        EXPECT_EQ(diffs, 1u);
        // The flipped byte opens the second record (file line 5).
        size_t line5 = 0;
        for (int nl = 0; nl < 4; ++nl)
            line5 = want.find('\n', line5) + 1;
        EXPECT_EQ(at, line5);
        expectFreshRenders(log, 1);
    }

    // torn-checkpoint fires on its second hit: that write is cut
    // mid-record, the writes around it are whole.
    {
        std::remove(path().c_str());
        ExploreConfig cfg = writerConfig(StrategyKind::Random);
        cfg.checkpointPath = path();
        WriteLog log;
        logWrites(cfg, d.graph(), log);
        fault::configure("torn-checkpoint=2");
        explorer().explore(d.graph(), cfg);
        fault::reset();
        ASSERT_GE(log.file.size(), 3u);
        EXPECT_EQ(log.file[0], log.want[0]);
        EXPECT_LT(log.file[1].size(), log.want[1].size());
        EXPECT_EQ(log.want[1].compare(0, log.file[1].size(),
                                      log.file[1]),
                  0);
        expectFreshRenders(log, 2);
    }
}

} // namespace
} // namespace dhdl::dse
