/**
 * Observability subsystem contract: thread-sharded counters merge
 * exactly on snapshot, histogram bucketing honors its edges
 * (lower_bound semantics: bucket b holds v <= bounds[b]), trace ring
 * buffers wrap by dropping oldest events (and say so), and the
 * Chrome-trace / metrics JSON exports are well-formed — verified by
 * parsing them back with a minimal JSON reader written here, so no
 * external dependency is needed. The checkpoint layer's counters and
 * spans are asserted on a real checkpointed explore and resume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
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

// ------------------------------------------------- minimal JSON reader

/**
 * Tiny recursive-descent JSON parser, just enough to round-trip the
 * exports: objects, arrays, strings (with escapes), numbers, bools,
 * null. Throws std::runtime_error on malformed input.
 */
struct Json {
    enum class Kind { Object, Array, String, Number, Bool, Null };
    Kind kind = Kind::Null;
    std::map<std::string, std::shared_ptr<Json>> object;
    std::vector<std::shared_ptr<Json>> array;
    std::string str;
    double num = 0;
    bool boolean = false;

    const Json&
    at(const std::string& key) const
    {
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key " + key);
        return *it->second;
    }
    bool has(const std::string& key) const
    {
        return object.count(key) > 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    Json
    parse()
    {
        Json v = value();
        ws();
        if (i_ != s_.size())
            throw std::runtime_error("trailing garbage");
        return v;
    }

  private:
    void
    ws()
    {
        while (i_ < s_.size() && std::isspace((unsigned char)s_[i_]))
            ++i_;
    }

    char
    peek()
    {
        ws();
        if (i_ >= s_.size())
            throw std::runtime_error("unexpected end");
        return s_[i_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("expected ") + c);
        ++i_;
    }

    Json
    value()
    {
        switch (peek()) {
        case '{':
            return object();
        case '[':
            return array();
        case '"': {
            Json v;
            v.kind = Json::Kind::String;
            v.str = string();
            return v;
        }
        case 't':
        case 'f':
            return boolean();
        case 'n':
            literal("null");
            return Json{};
        default:
            return number();
        }
    }

    Json
    object()
    {
        Json v;
        v.kind = Json::Kind::Object;
        expect('{');
        if (peek() == '}') {
            ++i_;
            return v;
        }
        for (;;) {
            std::string key = string();
            expect(':');
            v.object[key] = std::make_shared<Json>(value());
            if (peek() == ',') {
                ++i_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Json
    array()
    {
        Json v;
        v.kind = Json::Kind::Array;
        expect('[');
        if (peek() == ']') {
            ++i_;
            return v;
        }
        for (;;) {
            v.array.push_back(std::make_shared<Json>(value()));
            if (peek() == ',') {
                ++i_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (i_ < s_.size() && s_[i_] != '"') {
            char c = s_[i_++];
            if (c == '\\') {
                if (i_ >= s_.size())
                    throw std::runtime_error("bad escape");
                char e = s_[i_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u':
                    if (i_ + 4 > s_.size())
                        throw std::runtime_error("bad \\u");
                    out += '?'; // presence is enough for these tests
                    i_ += 4;
                    break;
                default:
                    throw std::runtime_error("bad escape char");
                }
            } else {
                out += c;
            }
        }
        if (i_ >= s_.size())
            throw std::runtime_error("unterminated string");
        ++i_; // closing quote
        return out;
    }

    Json
    number()
    {
        size_t start = i_;
        while (i_ < s_.size() &&
               (std::isdigit((unsigned char)s_[i_]) || s_[i_] == '-' ||
                s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' ||
                s_[i_] == 'E'))
            ++i_;
        if (i_ == start)
            throw std::runtime_error("expected number");
        Json v;
        v.kind = Json::Kind::Number;
        v.num = std::stod(s_.substr(start, i_ - start));
        return v;
    }

    Json
    boolean()
    {
        Json v;
        v.kind = Json::Kind::Bool;
        if (s_[i_] == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
        }
        return v;
    }

    void
    literal(const char* word)
    {
        for (const char* p = word; *p; ++p) {
            if (i_ >= s_.size() || s_[i_] != *p)
                throw std::runtime_error("bad literal");
            ++i_;
        }
    }

    const std::string& s_;
    size_t i_ = 0;
};

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

TEST(ObsMetricsTest, MetricsJsonRoundTrips)
{
    ScopedEnable on(true);
    resetMetrics();
    Counter("test.json.counter").add(5);
    Histogram("test.json.hist", {1, 2}).observe(2);
    Gauge("test.json.gauge").set(-4);

    std::ostringstream os;
    snapshotMetrics().writeJson(os);
    Json root = JsonParser(os.str()).parse();

    EXPECT_DOUBLE_EQ(
        root.at("counters").at("test.json.counter").num, 5.0);
    EXPECT_DOUBLE_EQ(root.at("gauges").at("test.json.gauge").num,
                     -4.0);
    const Json& h = root.at("histograms").at("test.json.hist");
    EXPECT_DOUBLE_EQ(h.at("count").num, 1.0);
    EXPECT_DOUBLE_EQ(h.at("sum").num, 2.0);
    ASSERT_EQ(h.at("counts").array.size(), 3u);
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

    // The export keeps the newest events and reports the loss.
    std::ostringstream os;
    writeChromeTrace(os);
    Json root = JsonParser(os.str()).parse();
    EXPECT_DOUBLE_EQ(
        root.at("otherData").at("droppedEvents").num, 36.0);
    uint64_t xEvents = 0;
    uint64_t minArg = 1000;
    for (const auto& e : root.at("traceEvents").array) {
        if (e->at("ph").str != "X")
            continue;
        ++xEvents;
        minArg = std::min<uint64_t>(
            minArg, uint64_t(e->at("args").at("i").num));
    }
    EXPECT_EQ(xEvents, 64u);
    EXPECT_EQ(minArg, 36u); // oldest 36 were overwritten
    setRingCapacity(16384); // restore default for later tests
}

TEST(ObsTraceTest, ChromeTraceExportIsWellFormed)
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

    std::ostringstream os;
    writeChromeTrace(os);
    Json root = JsonParser(os.str()).parse();

    EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
    ASSERT_EQ(root.at("traceEvents").kind, Json::Kind::Array);

    std::set<std::string> threadNames;
    std::set<std::string> spanNames;
    for (const auto& e : root.at("traceEvents").array) {
        const std::string& ph = e->at("ph").str;
        ASSERT_TRUE(ph == "M" || ph == "X") << ph;
        if (ph == "M") {
            EXPECT_EQ(e->at("name").str, "thread_name");
            threadNames.insert(e->at("args").at("name").str);
        } else {
            spanNames.insert(e->at("name").str);
            EXPECT_EQ(e->at("ts").kind, Json::Kind::Number);
            EXPECT_EQ(e->at("dur").kind, Json::Kind::Number);
            EXPECT_EQ(e->at("cat").kind, Json::Kind::String);
        }
    }
    EXPECT_TRUE(threadNames.count("worker-test"));
    EXPECT_TRUE(spanNames.count("outer"));
    EXPECT_TRUE(spanNames.count("manual"));
    EXPECT_TRUE(spanNames.count("on-worker"));
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

    std::ostringstream os;
    writeChromeTrace(os);
    Json root = JsonParser(os.str()).parse();
    bool found = false;
    for (const auto& e : root.at("traceEvents").array) {
        if (e->at("ph").str != "X")
            continue;
        found = true;
        EXPECT_EQ(e->at("name").str,
                  std::string(kTraceNameCap - 1, 'n'));
    }
    EXPECT_TRUE(found);
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
    std::ostringstream os;
    writeChromeTrace(os);
    Json root = JsonParser(os.str()).parse();
    std::multiset<std::string> names;
    for (const auto& e : root.at("traceEvents").array)
        if (e->at("ph").str == "X")
            names.insert(e->at("cat").str + "/" + e->at("name").str);
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
