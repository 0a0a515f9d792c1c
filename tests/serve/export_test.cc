/**
 * @file
 * serve/protocol's JSON exports of the obs snapshots: the metrics
 * document and the streamed Chrome trace parse back through
 * serve::parseJson with every key, escape and count intact.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/protocol.hh"

using namespace dhdl;
using namespace dhdl::serve;

namespace {

Json
parsed(const std::string& text)
{
    Json j;
    Status st = parseJson(text, j);
    EXPECT_TRUE(st.ok()) << st.diag().str();
    return j;
}

/** The current obs trace, rendered and parsed back. */
Json
processTrace()
{
    std::ostringstream os;
    writeChromeTrace(os, obs::snapshotTrace());
    return parsed(os.str());
}

std::set<std::string>
keysOf(const Json& obj)
{
    std::set<std::string> keys;
    for (const auto& [k, v] : obj.members())
        keys.insert(k);
    return keys;
}

TEST(ServeExport, MetricsJsonHasTheSnapshotKeys)
{
    obs::resetMetrics();
    obs::Counter("test.json.counter").add(5);
    obs::Histogram("test.json.hist", {1, 2}).observe(2);
    obs::Gauge("test.json.gauge").set(-4);

    Json root = parsed(metricsToJson(obs::snapshotMetrics()).render());
    EXPECT_EQ(keysOf(root),
              (std::set<std::string>{"counters", "gauges",
                                     "histograms"}));
    EXPECT_EQ(root.find("counters")->find("test.json.counter")->asInt(),
              5);
    EXPECT_EQ(root.find("gauges")->find("test.json.gauge")->asInt(), -4);
    const Json* h = root.find("histograms")->find("test.json.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(keysOf(*h), (std::set<std::string>{"bounds", "counts",
                                                  "count", "sum"}));
    EXPECT_EQ(h->find("bounds")->render(), "[1,2]");
    EXPECT_EQ(h->find("counts")->render(), "[0,1,0]");
    EXPECT_EQ(h->find("count")->asInt(), 1);
    EXPECT_EQ(h->find("sum")->asInt(), 2);
}

TEST(ServeExport, TraceEventFormatIsPinned)
{
    EXPECT_EQ(traceEventToJson("dse", "area", 3, 10, 2, 7).render(),
              "{\"ph\":\"X\",\"pid\":1,\"tid\":3,\"cat\":\"dse\","
              "\"name\":\"area\",\"ts\":10,\"dur\":2,"
              "\"args\":{\"i\":7}}");
    EXPECT_EQ(traceEventToJson("dse", "area", 3, 10, 2).find("args"),
              nullptr);
}

TEST(ServeExport, ChromeTraceRoundTripsNamesExactly)
{
    obs::resetTrace();
    const std::string tricky = "q\"b\\s\nend";
    obs::recordSpan("test", tricky.c_str(), 10, 5, 3);
    std::thread t([] {
        obs::setThreadName("worker-test");
        obs::recordSpan("test", "on-worker", 20, 1);
    });
    t.join();

    Json root = processTrace();
    EXPECT_EQ(root.find("displayTimeUnit")->asString(), "ms");
    EXPECT_EQ(root.find("otherData")->find("droppedEvents")->asInt(), 0);
    std::set<std::string> threadNames;
    std::set<std::string> spanNames;
    for (const Json& e : root.find("traceEvents")->items()) {
        const std::string& ph = e.find("ph")->asString();
        ASSERT_TRUE(ph == "M" || ph == "X") << ph;
        if (ph == "M") {
            EXPECT_EQ(e.find("name")->asString(), "thread_name");
            threadNames.insert(
                e.find("args")->find("name")->asString());
            continue;
        }
        spanNames.insert(e.find("name")->asString());
        EXPECT_TRUE(e.find("ts")->isNumber());
        EXPECT_TRUE(e.find("dur")->isNumber());
        EXPECT_EQ(e.find("cat")->asString(), "test");
        if (e.find("name")->asString() == tricky) {
            EXPECT_EQ(e.find("args")->find("i")->asInt(), 3);
        }
    }
    EXPECT_TRUE(threadNames.count("worker-test"));
    EXPECT_TRUE(threadNames.count(obs::threadName()));
    EXPECT_EQ(spanNames,
              (std::set<std::string>{tricky, "on-worker"}));
}

TEST(ServeExport, ChromeTraceReportsDroppedEvents)
{
    obs::resetTrace();
    // A thread of its own, so its ring holds only these events.
    std::thread t([] {
        for (size_t i = 0; i < obs::kTraceRingCapacity + 36; ++i)
            obs::recordSpan("test", "wrap", uint64_t(i), 1, int64_t(i));
    });
    t.join();

    Json root = processTrace();
    EXPECT_EQ(root.find("otherData")->find("droppedEvents")->asInt(),
              36);
    size_t spans = 0;
    for (const Json& e : root.find("traceEvents")->items())
        spans += e.find("ph")->asString() == "X";
    EXPECT_EQ(spans, obs::kTraceRingCapacity);
}

} // namespace
