#include "serve/protocol.hh"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <ostream>
#include <type_traits>

#include "dse/evaluator.hh"

#ifndef DHDL_VERSION_STRING
#define DHDL_VERSION_STRING "0.10.0"
#endif

namespace dhdl::serve {

const char*
versionString()
{
    return DHDL_VERSION_STRING;
}

Json
diagToJson(const Diag& d)
{
    Json j = Json::object();
    j.set("code", diagCodeName(d.code));
    j.set("severity",
          d.severity == DiagSeverity::Error ? "error" : "warning");
    if (!d.stage.empty())
        j.set("stage", d.stage);
    j.set("message", d.message);
    if (d.pointIndex >= 0)
        j.set("point", int64_t(d.pointIndex));
    if (!d.context.empty())
        j.set("context", d.context);
    return j;
}

Json
errorResponse(const Diag& d)
{
    Json j = Json::object();
    j.set("ok", false);
    j.set("error", diagToJson(d));
    return j;
}

Json
errorResponse(DiagCode code, const std::string& message,
              const std::string& stage)
{
    return errorResponse(Status::error(code, stage, message).diag());
}

Json
frontToJson(const Graph& g, const std::vector<dse::DesignPoint>& points,
            const std::vector<size_t>& front)
{
    Json arr = Json::array();
    for (size_t idx : front) {
        const dse::DesignPoint& p = points[idx];
        Json e = Json::object();
        e.set("index", int64_t(idx));
        e.set("cycles", p.cycles);
        e.set("alms", p.area.alms);
        e.set("dsps", p.area.dsps);
        e.set("brams", p.area.brams);
        e.set("binding", dse::renderBinding(g, p.binding));
        arr.push(std::move(e));
    }
    return arr;
}

Json
resultToJson(const Graph& g, const dse::ExploreResult& res)
{
    const dse::ExploreStats& s = res.stats;
    Json stats = Json::object();
    stats.set("requested", s.requested);
    stats.set("sampled", s.total);
    // The sampling-shortfall marker rides the result itself, not just
    // the diag stream: clients see "708/2000" without grepping diags.
    stats.set("shortfall", s.total < s.requested);
    stats.set("evaluated", s.evaluated);
    stats.set("resumed", s.resumed);
    stats.set("failed", s.failed);
    stats.set("valid", s.valid);
    stats.set("skipped", s.skipped);
    stats.set("cancelled", s.cancelled);
    stats.set("time_budget_hit", s.timeBudgetHit);
    stats.set("eval_budget_hit", s.evalBudgetHit);
    stats.set("rounds", s.rounds.size());

    Json diags = Json::array();
    for (const Diag& d : res.diags) {
        if (d.severity == DiagSeverity::Warning)
            diags.push(diagToJson(d));
    }

    Json failures = Json::array();
    for (const auto& [reason, count] : res.failureSummary()) {
        Json f = Json::object();
        f.set("reason", reason);
        f.set("count", count);
        failures.push(std::move(f));
    }

    Json j = Json::object();
    j.set("design", g.name());
    j.set("stats", std::move(stats));
    j.set("front", frontToJson(g, res.points, res.pareto));
    j.set("warnings", std::move(diags));
    j.set("failures", std::move(failures));
    return j;
}

void
renderSummary(const Json& result, std::ostream& os)
{
    const Json* stats = result.find("stats");
    if (!stats)
        return;
    auto n = [&](const char* k) {
        const Json* v = stats->find(k);
        return v ? v->asInt() : 0;
    };
    auto on = [&](const char* k) {
        const Json* v = stats->find(k);
        return v && v->asBool();
    };
    os << n("sampled") << " points sampled";
    if (on("shortfall"))
        os << " (of " << n("requested")
           << " requested; sampling shortfall)";
    os << ", " << n("evaluated") << " evaluated";
    if (n("resumed"))
        os << " (" << n("resumed") << " from checkpoint)";
    if (n("skipped")) {
        os << ", " << n("skipped") << " un-evaluated";
        if (on("time_budget_hit") || on("eval_budget_hit"))
            os << " (" << (on("time_budget_hit") ? "time" : "eval")
               << " budget)";
    }
    const Json* front = result.find("front");
    os << ", " << n("failed") << " failed, " << n("valid")
       << " valid, " << (front ? front->items().size() : 0)
       << " Pareto-optimal\n";
    const Json* failures = result.find("failures");
    if (n("failed") && failures) {
        os << "top failure reasons:\n";
        for (const Json& f : failures->items())
            os << "  " << f.find("count")->asInt() << "x "
               << f.find("reason")->asString() << "\n";
    }
    if (const Json* warns = result.find("warnings")) {
        for (const Json& w : warns->items()) {
            // The inverse of diagToJson(), so the note reads exactly
            // like the local Diag::str().
            auto field = [&](const char* k) {
                const Json* v = w.find(k);
                return v ? v->asString() : std::string();
            };
            Diag d = Diag::warning(diagCodeFromName(field("code")),
                                   field("stage"), field("message"));
            d.context = field("context");
            if (const Json* p = w.find("point"))
                d.pointIndex = p->asInt();
            os << "note: " << d.str() << "\n";
        }
    }
}

namespace {

/**
 * The config-key table: every wire key of a submit's "config" object
 * with its ExploreConfig member, as an accessor that works on a const
 * or mutable config. configToJson() and configFromJson() both walk
 * it, so the two directions cannot disagree.
 */
template <class F>
void
forEachConfigKey(F&& f)
{
    f("points", [](auto& c) -> auto& { return c.maxPoints; });
    f("seed", [](auto& c) -> auto& { return c.seed; });
    f("threads", [](auto& c) -> auto& { return c.threads; });
    f("eval_budget", [](auto& c) -> auto& { return c.evalBudget; });
    f("time_budget",
      [](auto& c) -> auto& { return c.timeBudgetSeconds; });
    f("strategy", [](auto& c) -> auto& { return c.strategy; });
}

} // namespace

Json
configToJson(const dse::ExploreConfig& cfg)
{
    const dse::ExploreConfig dflt;
    Json j = Json::object();
    forEachConfigKey([&](const char* key, auto member) {
        const auto& v = member(cfg);
        if (v == member(dflt))
            return;
        if constexpr (std::is_enum_v<std::decay_t<decltype(v)>>)
            j.set(key, dse::strategyName(v));
        else
            j.set(key, v);
    });
    return j;
}

Status
configFromJson(const Json& j, dse::ExploreConfig& cfg)
{
    Status st;
    forEachConfigKey([&](const char* key, auto member) {
        auto& v = member(cfg);
        using T = std::decay_t<decltype(v)>;
        const Json* w = j.find(key);
        if (!w || !st.ok())
            return;
        if constexpr (std::is_enum_v<T>)
            st = dse::parseStrategy(w->asString(), v);
        else if constexpr (std::is_floating_point_v<T>)
            v = w->asDouble(v);
        else
            v = T(w->asInt(int64_t(v)));
    });
    return st;
}

Status
writeAll(int fd, std::string_view bytes)
{
    while (!bytes.empty()) {
        const ssize_t n =
            ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n <= 0)
            return Status::error(DiagCode::UserError, "transport",
                                 std::string("send: ") +
                                     std::strerror(errno));
        bytes.remove_prefix(size_t(n));
    }
    return Status();
}

Status
writeLine(int fd, std::string_view line)
{
    std::string out;
    out.reserve(line.size() + 1);
    out.append(line).push_back('\n');
    return writeAll(fd, out);
}

Status
readLine(int fd, std::string& buf, std::string& line)
{
    size_t scanned = 0; // buf[0, scanned) holds no newline.
    while (true) {
        const size_t nl = buf.find('\n', scanned);
        const size_t end = nl == std::string::npos ? buf.size() : nl;
        if (end > kMaxLineBytes)
            return Status::error(DiagCode::UserError, "transport",
                                 "line longer than " +
                                     std::to_string(kMaxLineBytes >> 20) +
                                     " MiB");
        if (nl != std::string::npos) {
            const size_t len =
                nl > 0 && buf[nl - 1] == '\r' ? nl - 1 : nl;
            line.assign(buf, 0, len);
            buf.erase(0, nl + 1);
            return Status();
        }
        scanned = buf.size();
        char chunk[16384];
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            return Status::error(DiagCode::UserError, "transport",
                                 n == 0 ? "peer closed the connection"
                                        : std::string("recv: ") +
                                              std::strerror(errno));
        buf.append(chunk, size_t(n));
    }
}

Json
metricsToJson(const obs::MetricsSnapshot& m)
{
    Json counters = Json::object();
    for (const auto& [name, v] : m.counters)
        counters.set(name, v);
    Json gauges = Json::object();
    for (const auto& [name, v] : m.gauges)
        gauges.set(name, v);
    Json histograms = Json::object();
    for (const obs::HistogramSnapshot& h : m.histograms) {
        Json bounds = Json::array();
        for (uint64_t b : h.bounds)
            bounds.push(b);
        Json counts = Json::array();
        for (uint64_t c : h.counts)
            counts.push(c);
        Json e = Json::object();
        e.set("bounds", std::move(bounds));
        e.set("counts", std::move(counts));
        e.set("count", h.count);
        e.set("sum", h.sum);
        histograms.set(h.name, std::move(e));
    }
    Json j = Json::object();
    j.set("counters", std::move(counters));
    j.set("gauges", std::move(gauges));
    j.set("histograms", std::move(histograms));
    return j;
}

Json
traceEventToJson(const std::string& cat, const std::string& name,
                 uint32_t tid, uint64_t ts, uint64_t dur, int64_t arg)
{
    Json e = Json::object();
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", tid);
    e.set("cat", cat);
    e.set("name", name);
    e.set("ts", ts);
    e.set("dur", dur);
    if (arg >= 0)
        e.set("args", Json::object().set("i", arg));
    return e;
}

void
writeChromeTrace(std::ostream& os, const obs::TraceSnapshot& trace)
{
    std::string line;
    auto emit = [&](const Json& e) {
        line.assign(line.empty() ? "\n " : ",\n ");
        e.renderTo(line);
        os << line;
    };
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (const obs::ThreadTrace& t : trace.threads) {
        Json meta = Json::object();
        meta.set("ph", "M");
        meta.set("pid", 1);
        meta.set("tid", t.tid);
        meta.set("name", "thread_name");
        meta.set("args", Json::object().set("name", t.name));
        emit(meta);
        for (const obs::TraceEvent& e : t.events)
            emit(traceEventToJson(e.cat, e.name, t.tid, e.ts, e.dur,
                                  e.arg));
    }
    Json other = Json::object();
    other.set("droppedEvents", trace.dropped);
    os << "\n],\"otherData\":" << other.render() << "}\n";
}

} // namespace dhdl::serve
