/**
 * Observability subsystem contract: thread-sharded counters merge
 * exactly on snapshot, histogram bucketing honors its edges
 * (lower_bound semantics: bucket b holds v <= bounds[b]), trace ring
 * buffers wrap by dropping oldest events (and say so), and long span
 * names truncate cleanly. Everything is read straight from
 * snapshotMetrics() and snapshotTrace(); the JSON renderings of those
 * snapshots are tested in tests/serve/export_test.cc. Thread states
 * are reused after their threads exit, so a process that builds
 * thread pools over and over holds no more states than threads alive
 * at once. The checkpoint layer's counters and spans are asserted on
 * a real checkpointed explore and resume, and the evaluator's stage
 * counters against its stage spans on a threaded explore.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hh"
#include "cpu/thread_pool.hh"
#include "dse/explorer.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl::obs {
namespace {

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

TEST(ObsMetricsTest, CounterHandlesWithSameNameShareTheMetric)
{
    resetMetrics();
    Counter a("test.shared");
    Counter b("test.shared");
    a.add(3);
    b.add(4);
    EXPECT_EQ(snapshotMetrics().counter("test.shared"), 7u);
}

TEST(ObsMetricsTest, ShardsMergeExactlyUnderEightThreads)
{
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
    resetTrace();
    constexpr int kEvents = int(kTraceRingCapacity) + 36;

    // A thread of its own: no other span of this test lands in its
    // ring, whichever state (fresh or reused) it gets.
    std::thread t([] {
        for (int i = 0; i < kEvents; ++i)
            recordSpan("test", "wrap", uint64_t(i), 1, i);
    });
    t.join();

    TraceStats s = traceStats();
    EXPECT_EQ(s.recorded, uint64_t(kEvents));
    EXPECT_EQ(s.retained, kTraceRingCapacity);
    EXPECT_EQ(s.dropped, 36u);

    // The snapshot keeps the newest events and reports the loss.
    TraceSnapshot snap = snapshotTrace();
    EXPECT_EQ(snap.dropped, 36u);
    std::vector<TraceEvent> events = allEvents(snap);
    ASSERT_EQ(events.size(), kTraceRingCapacity);
    int64_t minArg = kEvents;
    for (const TraceEvent& e : events)
        minArg = std::min(minArg, e.arg);
    EXPECT_EQ(minArg, 36); // oldest 36 were overwritten
}

TEST(ObsTraceTest, ExitedThreadsHandTheirStateToNewThreads)
{
    resetTrace();
    constexpr int kWorkers = 4;
    for (int pool = 0; pool < 50; ++pool) {
        cpu::ThreadPool workers(kWorkers);
        // Each worker holds at the latch until all four have a task,
        // so every worker records one span.
        std::latch started(kWorkers);
        for (int w = 0; w < kWorkers; ++w) {
            workers.submit([&started] {
                started.arrive_and_wait();
                TraceSpan span("test", "pool-task");
            });
        }
        workers.barrier();
    }
    // Live at once: this thread and one pool's workers. Each pool's
    // workers take over the states of the pool before, so 200 worker
    // threads leave at most 4 states with events behind.
    TraceSnapshot snap = snapshotTrace();
    EXPECT_LE(snap.threads.size(), size_t(1 + kWorkers));
    size_t spans = 0;
    for (const TraceEvent& e : allEvents(snap))
        spans += std::string(e.name) == "pool-task";
    EXPECT_EQ(spans, 50u * kWorkers); // reuse keeps every event
}

TEST(ObsTraceTest, SnapshotGroupsEventsByNamedThread)
{
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

TEST(ObsTraceTest, LongNamesAreTruncatedNotCorrupted)
{
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

    std::remove(path.c_str());
}

TEST(ObsExploreTest, StageCountersAndStageSpansAreOneClock)
{
    Design d = apps::buildDotproduct({960000});
    dse::ExploreConfig cfg;
    cfg.maxPoints = 300;
    cfg.threads = 3;
    explorer(); // calibrate outside the recorded window

    resetMetrics();
    resetTrace();
    auto res = explorer().explore(d.graph(), cfg);
    ASSERT_EQ(res.stats.evaluated, 300u);
    const MetricsSnapshot m = snapshotMetrics();
    const TraceSnapshot t = snapshotTrace();
    ASSERT_EQ(t.dropped, 0u);

    std::map<std::string, uint64_t> spanUs;
    for (const TraceEvent& e : allEvents(t))
        if (std::string(e.cat) == "dse")
            spanUs[e.name] += e.dur;
    for (const char* s : {"instantiate", "area", "runtime", "validate"})
        EXPECT_EQ(m.counter(std::string("dse.stage.") + s + ".us"),
                  spanUs[s])
            << s;

    // One sample span, one propose span per round tagged with the
    // round index, and no per-round counters.
    std::vector<int64_t> proposeArgs;
    for (const TraceEvent& e : allEvents(t))
        if (std::string(e.cat) == "dse" && std::string(e.name) == "propose")
            proposeArgs.push_back(e.arg);
    EXPECT_EQ(proposeArgs, std::vector<int64_t>{0});
    EXPECT_EQ(spanNames().count("dse/sample"), 1u);
    for (const auto& [name, value] : m.counters) {
        EXPECT_EQ(name.find(".round."), std::string::npos) << name;
        EXPECT_EQ(name.find("surrogate"), std::string::npos) << name;
    }
}

} // namespace
} // namespace dhdl::obs
