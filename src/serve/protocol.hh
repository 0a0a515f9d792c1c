/**
 * @file
 * The dhdld wire protocol: newline-delimited JSON over a local TCP
 * socket, one request or event per line. Ops:
 *
 *   {"op":"hello","proto":1,"version":"..."}       version handshake
 *   {"op":"submit","tenant":"t","design":"gda",     enqueue a job
 *    "scale":1.0,"config":{...},"stream":true}      (or "ir":"<.dhdl
 *                                                    text>")
 *   {"op":"status","job":N}                         poll a job
 *   {"op":"result","job":N,"wait":true}             fetch the result
 *   {"op":"cancel","job":N}                         cooperative cancel
 *   {"op":"metrics"}                                /metrics text
 *   {"op":"trace","job":N}                          per-job trace JSON
 *   {"op":"shutdown"}                               graceful drain
 *
 * A submit's "config" object takes the keys points, seed, threads,
 * eval_budget, time_budget, strategy, initial_points and max_rounds;
 * any other key is ignored.
 *
 * Responses are `{"ok":true,...}` or `{"ok":false,"error":{...}}`
 * where the error object is a rendered structured Diag — admission
 * rejections, parse failures and version skew are all Diags, never
 * silent drops. A streaming submit additionally receives
 * `{"event":"round",...}` lines as search rounds complete and a final
 * `{"event":"done","result":{...}}`.
 *
 * The same socket doubles as a plain-text scrape target: a line
 * beginning with `GET /metrics` is answered with an HTTP/1.0
 * Prometheus exposition-format response and the connection closes —
 * `curl http://127.0.0.1:PORT/metrics` works against a dhdld.
 *
 * This header also owns the compile-time version string and the
 * deterministic renderers (Pareto front, job result, per-job trace,
 * the obs metrics and process trace) shared by the server, dhdlc and
 * the byte-identity tests: a streamed front and an offline `dhdlc
 * explore` of the same seed/config render through the identical code
 * path, so equal results are equal bytes.
 */

#ifndef DHDL_SERVE_PROTOCOL_HH
#define DHDL_SERVE_PROTOCOL_HH

#include <iosfwd>
#include <string>

#include "dse/explorer.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/json.hh"

namespace dhdl::serve {

/** Wire-protocol revision; bumped on incompatible changes. */
constexpr int kProtocolVersion = 1;

/**
 * Compile-time version string of this build (overridable with
 * -DDHDL_VERSION_STRING=...). Embedded in `dhdlc --version`, the
 * hello handshake, and every submit response, so client/server skew
 * is detected instead of silently misparsing.
 */
const char* versionString();

/** Render a structured Diag as a protocol error object. */
Json diagToJson(const Diag& d);

/** `{"ok":false,"error":{...}}` for the given Diag. */
Json errorResponse(const Diag& d);

/** Convenience: build a Diag and wrap it in errorResponse(). */
Json errorResponse(DiagCode code, const std::string& message,
                   const std::string& stage = "serve");

/**
 * The Pareto front as a deterministic JSON array: one object per
 * front index (ascending ALMs) with index, cycles, area and the
 * rendered binding. Byte-identical for byte-identical results — the
 * serving end-to-end test compares a streamed front against an
 * offline explore through this exact function.
 */
Json frontToJson(const Graph& g, const std::vector<dse::DesignPoint>& points,
                 const std::vector<size_t>& front);

/**
 * Full job result: stats (sampled/requested with an explicit
 * shortfall marker, evaluated, failed, valid, cancelled, rounds),
 * the front via frontToJson(), and every warning diag. Wall-clock
 * fields are excluded so equal explorations render equal bytes.
 */
Json resultToJson(const Graph& g, const dse::ExploreResult& res);

/**
 * Per-job Chrome-trace export built from ExploreStats: a
 * plan-compile span (only when this job actually compiled — a plan
 * cache hit has none, which the end-to-end test asserts) and one
 * propose/train/rank/eval span group per search round, on a
 * synthetic timeline starting at 0. Every span comes from
 * traceEventToJson(), like the process trace's.
 */
Json jobTraceToJson(const dse::ExploreResult& res);

/**
 * A metrics snapshot as `{"counters":{name:n,...},"gauges":{...},
 * "histograms":{name:{"bounds":[...],"counts":[...],"count":n,
 * "sum":n},...}}`, entries in snapshot (name-sorted) order — the
 * `dhdlc --metrics` file.
 */
Json metricsToJson(const obs::MetricsSnapshot& m);

/**
 * One complete ("X") Chrome-trace event: the single event format of
 * both the process trace and the per-job trace. `arg` >= 0 adds
 * `"args":{"i":arg}` (the explorer stores the design-point index).
 */
Json traceEventToJson(const std::string& cat, const std::string& name,
                      uint32_t tid, uint64_t ts, uint64_t dur,
                      int64_t arg = -1);

/**
 * Stream a trace snapshot as one Chrome-trace document
 * (`{"displayTimeUnit":"ms","traceEvents":[...],"otherData":
 * {"droppedEvents":n}}`) — the `dhdlc --trace` file. Each thread
 * contributes a thread_name metadata event, so Perfetto labels rows
 * "worker-N", then its events in timestamp order, one per line. A
 * snapshot may hold 1<<20 events per thread, so events are rendered
 * one at a time rather than as one tree for the whole document.
 */
void writeChromeTrace(std::ostream& os, const obs::TraceSnapshot& trace);

} // namespace dhdl::serve

#endif // DHDL_SERVE_PROTOCOL_HH
