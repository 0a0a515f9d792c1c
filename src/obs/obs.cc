/**
 * Implementation of the obs subsystem (obs.hh, metrics.hh,
 * trace.hh). All global state lives in one immortal GlobalState —
 * deliberately leaked so recording from detached or late-exiting
 * threads can never touch a destroyed object.
 *
 * Concurrency model:
 *  - metric shards: one fixed-size array of relaxed atomics per
 *    thread, written only through handle ids; snapshot() sums across
 *    shards without stopping writers (counters are monotone, so a
 *    racing snapshot is merely slightly stale, never torn);
 *  - trace rings: one vector per thread guarded by a per-thread
 *    mutex (uncontended except while snapshotTrace() drains it);
 *  - the global mutex guards registration, thread naming, the
 *    shard list and its free list — never the record hot path;
 *  - thread exit: a thread_local guard puts the thread's state on
 *    the free list, and the next new thread takes it over with its
 *    tid, its metric sums and its retained trace events intact. So
 *    there are never more states than threads alive at once.
 */

#include "obs/obs.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <mutex>
#include <ostream>
#include <unordered_map>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl::obs {

namespace {

/** Total metric slots per shard; registrations past this are sunk. */
constexpr uint32_t kMaxSlots = 1024;
/** Slot 0 absorbs over-cap registrations (never reported). */
constexpr uint32_t kSinkSlot = 0;

enum class Kind : uint8_t { Counter, Histogram };

struct MetricDef {
    std::string name;
    Kind kind = Kind::Counter;
    std::vector<uint64_t> bounds; //!< Histogram edges; else empty.
    uint32_t slot = kSinkSlot;    //!< First shard slot.
    uint32_t nslots = 1;
};

struct ThreadState {
    uint32_t tid = 0;
    std::string name; //!< Guarded by the global mutex.
    std::array<std::atomic<uint64_t>, kMaxSlots> slots{};

    std::mutex traceMu;
    std::vector<TraceEvent> ring;
    uint64_t next = 0; //!< Events ever recorded by this thread.
};

struct GlobalState {
    const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();

    std::mutex mu;
    // deques: element addresses stay valid across growth, which the
    // thread_local shard pointers and histogram-bounds pointers rely
    // on.
    std::deque<ThreadState> threads;
    std::vector<ThreadState*> freeThreads; //!< Left by exited threads.
    std::deque<MetricDef> defs;
    std::unordered_map<std::string, uint32_t> byName;
    uint32_t nextSlot = kSinkSlot + 1;
    uint64_t droppedMetrics = 0;

    std::deque<std::atomic<int64_t>> gauges;
    std::vector<std::string> gaugeNames;
    std::unordered_map<std::string, uint32_t> gaugeByName;
};

GlobalState&
G()
{
    static GlobalState* g = new GlobalState; // immortal by design
    return *g;
}

thread_local ThreadState* tlsState = nullptr;

/** Hands the thread's state to the free list when the thread exits. */
struct ThreadExit {
    ThreadExit() = default;
    ThreadExit(const ThreadExit&) = delete;
    ThreadExit& operator=(const ThreadExit&) = delete;

    ~ThreadExit()
    {
        GlobalState& g = G();
        std::lock_guard<std::mutex> lock(g.mu);
        g.freeThreads.push_back(tlsState);
        tlsState = nullptr;
    }
};

/**
 * The calling thread's shard: on first use, an exited thread's state
 * or else a new one.
 */
ThreadState&
ts()
{
    if (!tlsState) {
        GlobalState& g = G();
        std::lock_guard<std::mutex> lock(g.mu);
        if (!g.freeThreads.empty()) {
            // The exited thread's events keep its name until the state
            // changes hands.
            tlsState = g.freeThreads.back();
            g.freeThreads.pop_back();
            tlsState->name = "thread-" + std::to_string(tlsState->tid);
        } else {
            ThreadState& t = g.threads.emplace_back();
            t.tid = uint32_t(g.threads.size() - 1);
            // The first thread to touch obs is the process main thread
            // in every binary we ship; label it for trace readability.
            t.name = t.tid == 0 ? "main"
                                : "thread-" + std::to_string(t.tid);
            tlsState = &t;
        }
        thread_local ThreadExit onExit;
        (void)onExit;
    }
    return *tlsState;
}

/**
 * Register (or look up) a metric; returns its definition. Name
 * collisions across kinds and over-cap registrations fall back to
 * the sink slot so a misconfigured call site can never corrupt
 * another metric.
 */
const MetricDef&
registerMetric(const std::string& name, Kind kind,
               std::vector<uint64_t> bounds)
{
    GlobalState& g = G();
    std::lock_guard<std::mutex> lock(g.mu);
    static const MetricDef sink; // slot 0, 1 slot
    auto it = g.byName.find(name);
    if (it != g.byName.end()) {
        const MetricDef& d = g.defs[it->second];
        if (d.kind != kind || d.bounds != bounds) {
            ++g.droppedMetrics;
            return sink;
        }
        return d;
    }
    uint32_t nslots =
        kind == Kind::Counter ? 1 : uint32_t(bounds.size()) + 2;
    if (g.nextSlot + nslots > kMaxSlots) {
        ++g.droppedMetrics;
        return sink;
    }
    g.byName.emplace(name, uint32_t(g.defs.size()));
    g.defs.push_back(
        {name, kind, std::move(bounds), g.nextSlot, nslots});
    g.nextSlot += nslots;
    return g.defs.back();
}

void
copyTruncated(char* dst, size_t cap, const char* src)
{
    size_t n = std::min(cap - 1, std::strlen(src));
    std::memcpy(dst, src, n);
    dst[n] = '\0';
}

} // namespace

uint64_t
nowMicros()
{
    return toMicros(std::chrono::steady_clock::now());
}

uint64_t
toMicros(std::chrono::steady_clock::time_point tp)
{
    auto d = tp - G().epoch;
    auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(d)
            .count();
    return us > 0 ? uint64_t(us) : 0;
}

uint32_t
threadId()
{
    return ts().tid;
}

void
setThreadName(const std::string& name)
{
    ThreadState& t = ts();
    std::lock_guard<std::mutex> lock(G().mu);
    t.name = name;
}

std::string
threadName()
{
    ThreadState& t = ts();
    std::lock_guard<std::mutex> lock(G().mu);
    return t.name;
}

// ---------------------------------------------------------------- metrics

Counter::Counter(const std::string& name)
    : slot_(registerMetric(name, Kind::Counter, {}).slot)
{
}

void
Counter::add(uint64_t n) const
{
    ts().slots[slot_].fetch_add(n, std::memory_order_relaxed);
}

Gauge::Gauge(const std::string& name)
{
    GlobalState& g = G();
    std::lock_guard<std::mutex> lock(g.mu);
    auto it = g.gaugeByName.find(name);
    if (it != g.gaugeByName.end()) {
        id_ = it->second;
        return;
    }
    id_ = uint32_t(g.gauges.size());
    g.gauges.emplace_back(0);
    g.gaugeNames.push_back(name);
    g.gaugeByName.emplace(name, id_);
}

void
Gauge::set(int64_t v) const
{
    G().gauges[id_].store(v, std::memory_order_relaxed);
}

void
Gauge::add(int64_t delta) const
{
    G().gauges[id_].fetch_add(delta, std::memory_order_relaxed);
}

Histogram::Histogram(const std::string& name,
                     std::vector<uint64_t> bounds)
{
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());
    const MetricDef& d =
        registerMetric(name, Kind::Histogram, std::move(bounds));
    slot_ = d.slot;
    nbounds_ = uint32_t(d.bounds.size());
    bounds_ = &d.bounds;
}

void
Histogram::observe(uint64_t v) const
{
    ThreadState& t = ts();
    if (slot_ == kSinkSlot) { // sunk registration
        t.slots[kSinkSlot].fetch_add(1, std::memory_order_relaxed);
        return;
    }
    // Bucket = first edge >= v; nbounds_ = the overflow bucket.
    uint32_t b = uint32_t(
        std::lower_bound(bounds_->begin(), bounds_->end(), v) -
        bounds_->begin());
    t.slots[slot_ + b].fetch_add(1, std::memory_order_relaxed);
    t.slots[slot_ + nbounds_ + 1].fetch_add(
        v, std::memory_order_relaxed); // sum slot
}

void
addCounter(const std::string& name, uint64_t n)
{
    Counter(name).add(n);
}

uint64_t
MetricsSnapshot::counter(const std::string& name) const
{
    for (const auto& [n, v] : counters) {
        if (n == name)
            return v;
    }
    return 0;
}

MetricsSnapshot
snapshotMetrics()
{
    GlobalState& g = G();
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(g.mu);

    auto sumSlot = [&](uint32_t slot) {
        uint64_t total = 0;
        for (const ThreadState& t : g.threads)
            total += t.slots[slot].load(std::memory_order_relaxed);
        return total;
    };

    for (const MetricDef& d : g.defs) {
        if (d.kind == Kind::Counter) {
            snap.counters.emplace_back(d.name, sumSlot(d.slot));
        } else {
            HistogramSnapshot h;
            h.name = d.name;
            h.bounds = d.bounds;
            h.counts.resize(d.bounds.size() + 1);
            for (size_t b = 0; b < h.counts.size(); ++b) {
                h.counts[b] = sumSlot(d.slot + uint32_t(b));
                h.count += h.counts[b];
            }
            h.sum = sumSlot(d.slot + uint32_t(d.bounds.size()) + 1);
            snap.histograms.push_back(std::move(h));
        }
    }
    if (g.droppedMetrics > 0)
        snap.counters.emplace_back("obs.metrics.dropped",
                                   g.droppedMetrics);
    for (size_t i = 0; i < g.gauges.size(); ++i)
        snap.gauges.emplace_back(
            g.gaugeNames[i],
            g.gauges[i].load(std::memory_order_relaxed));

    auto byName = [](const auto& a, const auto& b) {
        return a.first < b.first;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byName);
    std::sort(snap.gauges.begin(), snap.gauges.end(), byName);
    std::sort(snap.histograms.begin(), snap.histograms.end(),
              [](const HistogramSnapshot& a,
                 const HistogramSnapshot& b) { return a.name < b.name; });
    return snap;
}

void
resetMetrics()
{
    GlobalState& g = G();
    std::lock_guard<std::mutex> lock(g.mu);
    for (ThreadState& t : g.threads) {
        for (auto& s : t.slots)
            s.store(0, std::memory_order_relaxed);
    }
    for (auto& gauge : g.gauges)
        gauge.store(0, std::memory_order_relaxed);
    g.droppedMetrics = 0;
}

void
MetricsSnapshot::renderText(std::ostream& os) const
{
    size_t width = 0;
    for (const auto& [n, v] : counters)
        width = std::max(width, n.size());
    for (const auto& [n, v] : gauges)
        width = std::max(width, n.size());
    auto pad = [&](const std::string& n) {
        os << "  " << n << std::string(width + 2 - n.size(), ' ');
    };
    os << "obs profile (merged over all threads):\n";
    for (const auto& [n, v] : counters) {
        pad(n);
        os << v;
        // Microsecond totals get a human-scale echo.
        if (n.size() > 3 && n.compare(n.size() - 3, 3, ".us") == 0)
            os << "  (" << double(v) / 1e3 << " ms)";
        os << "\n";
    }
    for (const auto& [n, v] : gauges) {
        pad(n);
        os << v << " (gauge)\n";
    }
    for (const HistogramSnapshot& h : histograms) {
        os << "  " << h.name << "  count=" << h.count
           << " mean=" << h.mean() << " sum=" << h.sum << "\n";
        if (h.count == 0)
            continue;
        os << "    ";
        for (size_t b = 0; b < h.counts.size(); ++b) {
            if (b)
                os << " ";
            if (b < h.bounds.size())
                os << "<=" << h.bounds[b];
            else
                os << ">" << (h.bounds.empty() ? 0 : h.bounds.back());
            os << ":" << h.counts[b];
        }
        os << "\n";
    }
}

namespace {

/** `dse.points.evaluated` → `dhdl_dse_points_evaluated`. */
std::string
promName(const std::string& name)
{
    std::string out = "dhdl_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9');
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

void
MetricsSnapshot::renderProm(std::ostream& os) const
{
    for (const auto& [n, v] : counters) {
        const std::string p = promName(n);
        os << "# TYPE " << p << " counter\n" << p << " " << v << "\n";
    }
    for (const auto& [n, v] : gauges) {
        const std::string p = promName(n);
        os << "# TYPE " << p << " gauge\n" << p << " " << v << "\n";
    }
    for (const HistogramSnapshot& h : histograms) {
        const std::string p = promName(h.name);
        os << "# TYPE " << p << " histogram\n";
        uint64_t cum = 0;
        for (size_t b = 0; b < h.counts.size(); ++b) {
            cum += h.counts[b];
            os << p << "_bucket{le=\"";
            if (b < h.bounds.size())
                os << h.bounds[b];
            else
                os << "+Inf";
            os << "\"} " << cum << "\n";
        }
        os << p << "_sum " << h.sum << "\n"
           << p << "_count " << h.count << "\n";
    }
}

// ---------------------------------------------------------------- tracing

void
recordSpan(const char* cat, const char* name, uint64_t tsMicros,
           uint64_t durMicros, int64_t arg)
{
    ThreadState& t = ts();
    std::lock_guard<std::mutex> lock(t.traceMu);
    if (t.ring.empty())
        t.ring.resize(kTraceRingCapacity);
    TraceEvent& e = t.ring[t.next % t.ring.size()];
    copyTruncated(e.name, kTraceNameCap, name);
    copyTruncated(e.cat, kTraceCatCap, cat);
    e.ts = tsMicros;
    e.dur = durMicros;
    e.arg = arg;
    ++t.next;
}

TraceStats
traceStats()
{
    GlobalState& g = G();
    TraceStats s;
    std::lock_guard<std::mutex> lock(g.mu);
    for (ThreadState& t : g.threads) {
        std::lock_guard<std::mutex> tl(t.traceMu);
        s.recorded += t.next;
        s.retained += std::min<uint64_t>(t.next, t.ring.size());
    }
    s.dropped = s.recorded - s.retained;
    return s;
}

TraceSnapshot
snapshotTrace()
{
    GlobalState& g = G();
    std::lock_guard<std::mutex> lock(g.mu);

    TraceSnapshot snap;
    for (ThreadState& t : g.threads) {
        ThreadTrace tt;
        {
            std::lock_guard<std::mutex> tl(t.traceMu);
            uint64_t kept =
                std::min<uint64_t>(t.next, t.ring.size());
            snap.dropped += t.next - kept;
            tt.events.reserve(size_t(kept));
            // Oldest retained event first.
            for (uint64_t i = t.next - kept; i < t.next; ++i)
                tt.events.push_back(t.ring[i % t.ring.size()]);
        }
        if (tt.events.empty())
            continue;
        std::stable_sort(tt.events.begin(), tt.events.end(),
                         [](const TraceEvent& a, const TraceEvent& b) {
                             return a.ts < b.ts;
                         });
        tt.tid = t.tid;
        tt.name = t.name;
        snap.threads.push_back(std::move(tt));
    }
    return snap;
}

void
resetTrace()
{
    GlobalState& g = G();
    std::lock_guard<std::mutex> lock(g.mu);
    for (ThreadState& t : g.threads) {
        std::lock_guard<std::mutex> tl(t.traceMu);
        t.next = 0;
    }
}

} // namespace dhdl::obs
