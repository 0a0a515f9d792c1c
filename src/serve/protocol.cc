#include "serve/protocol.hh"

#include <ostream>

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
    Diag d;
    d.code = code;
    d.severity = DiagSeverity::Error;
    d.stage = stage;
    d.message = message;
    return errorResponse(d);
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

    Json j = Json::object();
    j.set("design", g.name());
    j.set("stats", std::move(stats));
    j.set("front", frontToJson(g, res.points, res.pareto));
    j.set("warnings", std::move(diags));
    return j;
}

Json
jobTraceToJson(const dse::ExploreResult& res)
{
    auto us = [](double sec) {
        return sec > 0 ? uint64_t(sec * 1e6) : uint64_t(0);
    };
    Json events = Json::array();
    auto span = [&](const std::string& name, uint64_t ts,
                    uint64_t dur) {
        events.push(traceEventToJson("serve", name, 1, ts, dur));
    };
    uint64_t now = 0;
    // planSeconds is 0 exactly when the driver received a cached
    // plan, so a cache-hit job's trace has no plan-compile span.
    if (res.stats.planSeconds > 0) {
        span("plan-compile", now, us(res.stats.planSeconds));
        now += us(res.stats.planSeconds);
    }
    for (const dse::RoundStats& rs : res.stats.rounds) {
        const std::string label = "round-" + std::to_string(rs.round);
        span(label + ".propose", now, us(rs.proposeSeconds));
        if (rs.trainSeconds > 0)
            span(label + ".train", now, us(rs.trainSeconds));
        if (rs.rankSeconds > 0)
            span(label + ".rank", now, us(rs.rankSeconds));
        now += us(rs.proposeSeconds);
        span(label + ".eval", now, us(rs.evalSeconds));
        now += us(rs.evalSeconds);
    }
    Json j = Json::object();
    j.set("traceEvents", std::move(events));
    j.set("displayTimeUnit", "ms");
    return j;
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
