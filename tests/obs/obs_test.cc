/**
 * Observability subsystem contract: thread-sharded counters merge
 * exactly on snapshot, histogram bucketing honors its edges
 * (lower_bound semantics: bucket b holds v <= bounds[b]), trace ring
 * buffers wrap by dropping oldest events (and say so), and long span
 * names truncate cleanly. Everything is read straight from
 * snapshotMetrics() and snapshotTrace(); the JSON renderings of those
 * snapshots are tested in tests/serve/export_test.cc. The checkpoint
 * layer's counters and spans are asserted on a real checkpointed
 * explore and resume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hh"
#include "dse/explorer.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl::obs {
namespace {

/** RAII: force recording on (or off) for one test, then restore. */
class ScopedEnable
{
  public:
    explicit ScopedEnable(bool on) : prev_(enabled())
    {
        setEnabled(on);
    }
    ~ScopedEnable() { setEnabled(prev_); }

  private:
    bool prev_;
};

/** Every retained span of the snapshot, across threads. */
std::vector<TraceEvent>
allEvents(const TraceSnapshot& snap)
{
    std::vector<TraceEvent> out;
    for (const ThreadTrace& t : snap.threads)
        out.insert(out.end(), t.events.begin(), t.events.end());
    return out;
}

// ------------------------------------------------------------- metrics

TEST(ObsMetricsTest, DisabledRecordingIsInvisible)
{
    ScopedEnable off(false);
    resetMetrics();
    Counter c("test.invisible");
    c.add(42);
    addCounter("test.invisible", 8);
    EXPECT_EQ(snapshotMetrics().counter("test.invisible"), 0u);
}

TEST(ObsMetricsTest, CounterHandlesWithSameNameShareTheMetric)
{
    ScopedEnable on(true);
    resetMetrics();
    Counter a("test.shared");
    Counter b("test.shared");
    a.add(3);
    b.add(4);
    EXPECT_EQ(snapshotMetrics().counter("test.shared"), 7u);
}

TEST(ObsMetricsTest, ShardsMergeExactlyUnderEightThreads)
{
    ScopedEnable on(true);
    resetMetrics();
    constexpr int kThreads = 8;
    constexpr int kAdds = 10000;
    Counter c("test.merge");
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&c] {
            for (int i = 0; i < kAdds; ++i)
                c.add(1);
        });
    }
    for (auto& t : pool)
        t.join();
    // Every thread shard contributes; nothing lost, nothing torn.
    EXPECT_EQ(snapshotMetrics().counter("test.merge"),
              uint64_t(kThreads) * kAdds);
}

TEST(ObsMetricsTest, HistogramBucketEdges)
{
    ScopedEnable on(true);
    resetMetrics();
    Histogram h("test.hist.edges", {10, 20});
    // Bucket b counts v <= bounds[b]; the last bucket is overflow.
    h.observe(0);
    h.observe(9);
    h.observe(10); // on the edge: still bucket 0
    h.observe(11);
    h.observe(20); // on the edge: still bucket 1
    h.observe(21); // overflow
    h.observe(1000);

    auto snap = snapshotMetrics();
    const HistogramSnapshot* hs = nullptr;
    for (const auto& s : snap.histograms) {
        if (s.name == "test.hist.edges")
            hs = &s;
    }
    ASSERT_NE(hs, nullptr);
    ASSERT_EQ(hs->bounds, (std::vector<uint64_t>{10, 20}));
    ASSERT_EQ(hs->counts.size(), 3u);
    EXPECT_EQ(hs->counts[0], 3u);
    EXPECT_EQ(hs->counts[1], 2u);
    EXPECT_EQ(hs->counts[2], 2u);
    EXPECT_EQ(hs->count, 7u);
    EXPECT_EQ(hs->sum, 0u + 9 + 10 + 11 + 20 + 21 + 1000);
}

TEST(ObsMetricsTest, GaugeSetWinsOverAdd)
{
    ScopedEnable on(true);
    resetMetrics();
    Gauge g("test.gauge");
    g.set(10);
    g.add(-3);
    auto snap = snapshotMetrics();
    bool found = false;
    for (const auto& [n, v] : snap.gauges) {
        if (n == "test.gauge") {
            found = true;
            EXPECT_EQ(v, 7);
        }
    }
    EXPECT_TRUE(found);
}

// ------------------------------------------------------------- tracing

TEST(ObsTraceTest, RingBufferWrapsByDroppingOldest)
{
    ScopedEnable on(true);
    resetTrace();
    setRingCapacity(64); // clamps at the documented minimum

    // A fresh thread gets a fresh (lazily sized) ring, so this test
    // controls its capacity regardless of what earlier tests did on
    // the main thread.
    std::thread t([] {
        for (int i = 0; i < 100; ++i)
            recordSpan("test", "wrap", uint64_t(i), 1, i);
    });
    t.join();

    TraceStats s = traceStats();
    EXPECT_EQ(s.recorded, 100u);
    EXPECT_EQ(s.retained, 64u);
    EXPECT_EQ(s.dropped, 36u);

    // The snapshot keeps the newest events and reports the loss.
    TraceSnapshot snap = snapshotTrace();
    EXPECT_EQ(snap.dropped, 36u);
    std::vector<TraceEvent> events = allEvents(snap);
    ASSERT_EQ(events.size(), 64u);
    int64_t minArg = 1000;
    for (const TraceEvent& e : events)
        minArg = std::min(minArg, e.arg);
    EXPECT_EQ(minArg, 36); // oldest 36 were overwritten
    setRingCapacity(16384); // restore default for later tests
}

TEST(ObsTraceTest, SnapshotGroupsEventsByNamedThread)
{
    ScopedEnable on(true);
    resetTrace();

    {
        TraceSpan span("test", "outer");
        span.setArg(7);
        recordSpan("test", "manual", 10, 5, -1);
    }
    std::thread t([] {
        setThreadName("worker-test");
        TraceSpan span("test", "on-worker");
    });
    t.join();

    TraceSnapshot snap = snapshotTrace();
    EXPECT_EQ(snap.dropped, 0u);
    std::map<std::string, std::multiset<std::string>> byThread;
    for (const ThreadTrace& tt : snap.threads) {
        ASSERT_FALSE(tt.events.empty());
        // Events within a thread come out in timestamp order.
        for (size_t i = 1; i < tt.events.size(); ++i)
            EXPECT_LE(tt.events[i - 1].ts, tt.events[i].ts);
        for (const TraceEvent& e : tt.events)
            byThread[tt.name].insert(e.name);
    }
    EXPECT_EQ(byThread["worker-test"],
              (std::multiset<std::string>{"on-worker"}));
    EXPECT_EQ(byThread[threadName()],
              (std::multiset<std::string>{"manual", "outer"}));
    for (const TraceEvent& e : allEvents(snap)) {
        EXPECT_STREQ(e.cat, "test");
        EXPECT_EQ(e.arg, std::string(e.name) == "outer" ? 7 : -1);
    }
}

TEST(ObsTraceTest, DisabledSpansRecordNothing)
{
    ScopedEnable off(false);
    resetTrace();
    {
        TraceSpan span("test", "ghost");
        DHDL_OBS_SPAN("test", "ghost-macro");
    }
    recordSpan("test", "ghost-manual", 0, 1, -1);
    EXPECT_EQ(traceStats().recorded, 0u);
}

TEST(ObsTraceTest, LongNamesAreTruncatedNotCorrupted)
{
    ScopedEnable on(true);
    resetTrace();
    std::string longName(200, 'n');
    recordSpan("test", longName.c_str(), 0, 1, -1);

    std::vector<TraceEvent> events = allEvents(snapshotTrace());
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(std::string(events[0].name),
              std::string(kTraceNameCap - 1, 'n'));
}

// ---------------------------------------------------- checkpoint layer

dse::Explorer&
explorer()
{
    static est::RuntimeEstimator rt;
    static dse::Explorer ex(est::calibratedEstimator(), rt);
    return ex;
}

/** Names of the complete spans recorded so far. */
std::multiset<std::string>
spanNames()
{
    std::multiset<std::string> names;
    for (const TraceEvent& e : allEvents(snapshotTrace()))
        names.insert(std::string(e.cat) + "/" + e.name);
    return names;
}

TEST(ObsCheckpointTest, WritesAndLoadsAreCountedAndTraced)
{
    const std::string path =
        ::testing::TempDir() + "dhdl_obs_ckpt.ckpt";
    std::remove(path.c_str());
    Design d = apps::buildDotproduct({960000});
    dse::ExploreConfig cfg;
    cfg.maxPoints = 60;
    cfg.checkpointEvery = 25;
    cfg.checkpointPath = path;
    uint64_t writes = 0, bytes = 0;
    cfg.onCheckpoint = [&](const std::vector<dse::DesignPoint>&, bool) {
        ++writes;
        std::ifstream is(path, std::ios::binary | std::ios::ate);
        bytes += uint64_t(is.tellg());
    };
    explorer(); // calibrate outside the recorded window

    ScopedEnable on(true);
    resetMetrics();
    resetTrace();
    auto res = explorer().explore(d.graph(), cfg);
    ASSERT_EQ(res.stats.evaluated, 60u);
    auto m = snapshotMetrics();
    EXPECT_EQ(writes, 3u); // after 25, 50 and 60 evaluations
    EXPECT_EQ(m.counter("dse.checkpoint.writes"), writes);
    EXPECT_EQ(m.counter("dse.checkpoint.bytes"), bytes);
    // Render once: one record per evaluated point over all writes.
    EXPECT_EQ(m.counter("dse.checkpoint.rendered"), res.stats.evaluated);
    EXPECT_EQ(spanNames().count("dse/checkpoint-write"), writes);

    resetMetrics();
    resetTrace();
    cfg.resume = true;
    auto again = explorer().explore(d.graph(), cfg);
    m = snapshotMetrics();
    EXPECT_EQ(again.stats.resumed, 60u);
    EXPECT_EQ(m.counter("dse.checkpoint.loads"), 1u);
    EXPECT_EQ(m.counter("dse.checkpoint.restored"), 60u);
    EXPECT_EQ(spanNames().count("dse/checkpoint-load"), 1u);

    // Recording off: the same run leaves every counter at zero.
    {
        ScopedEnable off(false);
        resetMetrics();
        std::remove(path.c_str());
        cfg.resume = false;
        explorer().explore(d.graph(), cfg);
    }
    m = snapshotMetrics();
    EXPECT_EQ(m.counter("dse.checkpoint.writes"), 0u);
    EXPECT_EQ(m.counter("dse.checkpoint.bytes"), 0u);
    EXPECT_EQ(m.counter("dse.checkpoint.rendered"), 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace dhdl::obs
