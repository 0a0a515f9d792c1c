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
 *   {"op":"shutdown"}                               graceful drain
 *
 * Any other op is a structured ParseError ("unknown op").
 *
 * A submit's "config" object takes exactly the keys of the
 * config-key table in protocol.cc, the one list of (wire key,
 * dse::ExploreConfig member) pairs that configToJson() and
 * configFromJson() both walk; any other key is ignored. A key left
 * out means the ExploreConfig default, except threads, where it means
 * the daemon's --threads.
 *
 * Responses are `{"ok":true,...}` or `{"ok":false,"error":{...}}`
 * where the error object is a rendered structured Diag — admission
 * rejections, parse failures and version skew are all Diags, never
 * silent drops. A streaming submit additionally receives
 * `{"event":"round",...}` lines as search rounds complete and a final
 * `{"event":"done","result":{...}}`.
 *
 * The same socket doubles as an HTTP scrape target: a line beginning
 * with `GET /metrics` is answered with an HTTP/1.0 Prometheus
 * exposition-format response, one beginning with `GET /trace` with
 * the process's obs trace as a Chrome-trace document (the
 * writeChromeTrace() file `dhdlc --trace` writes), and the
 * connection closes — `curl http://127.0.0.1:PORT/metrics` and
 * `curl http://127.0.0.1:PORT/trace` work against a dhdld.
 *
 * This header also owns the version string, the line transport of
 * both ends, and the deterministic renderers (Pareto front, job
 * result and its summary, obs metrics and trace) shared by the
 * server, dhdlc and the byte-identity tests: a
 * streamed result and an offline `dhdlc explore` of the same
 * seed/config render through the identical code, so equal results
 * are equal bytes and print the same summary.
 */

#ifndef DHDL_SERVE_PROTOCOL_HH
#define DHDL_SERVE_PROTOCOL_HH

#include <iosfwd>
#include <string>
#include <string_view>

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
 * shortfall marker, evaluated, resumed, failed, valid, skipped, the
 * budget and cancel flags, rounds), the front via frontToJson(),
 * every warning diag, and failureSummary() as `failures`. Wall-clock
 * fields are excluded so equal explorations render equal bytes.
 */
Json resultToJson(const Graph& g, const dse::ExploreResult& res);

/**
 * The human summary of a resultToJson() object, the one renderer of
 * `dhdlc explore`/`merge`/`report` and `dhdlc submit --follow`: the
 * sampled/evaluated/failed/valid/Pareto line with its shortfall,
 * resume and budget notes, the top failure reasons, and a "note:"
 * line per warning. The Pareto listing is not part of it.
 */
void renderSummary(const Json& result, std::ostream& os);

/**
 * A submit's "config" object: one member per config-key table entry
 * whose value differs from a default dse::ExploreConfig.
 */
Json configToJson(const dse::ExploreConfig& cfg);

/**
 * Apply a "config" object to `cfg`: each table key present sets its
 * member (a non-number where a number belongs keeps the current
 * value); keys outside the table are ignored. An unknown strategy
 * name is a UserError.
 */
Status configFromJson(const Json& j, dse::ExploreConfig& cfg);

/** Longest line either end of the protocol accepts. */
constexpr size_t kMaxLineBytes = size_t(64) << 20;

/** Send all of `bytes` on socket `fd`; a gone peer is an error
 *  Status, never a SIGPIPE. */
Status writeAll(int fd, std::string_view bytes);

/** Send one protocol line: `line` and its '\n'. */
Status writeLine(int fd, std::string_view line);

/**
 * Read the next protocol line from socket `fd` into `line`, without
 * its '\n' or a trailing '\r'. `buf` carries bytes read past the
 * line to the next call. EOF, a recv error or a line longer than
 * kMaxLineBytes is an error.
 */
Status readLine(int fd, std::string& buf, std::string& line);

/**
 * A metrics snapshot as `{"counters":{name:n,...},"gauges":{...},
 * "histograms":{name:{"bounds":[...],"counts":[...],"count":n,
 * "sum":n},...}}`, entries in snapshot (name-sorted) order — the
 * `dhdlc --metrics` file.
 */
Json metricsToJson(const obs::MetricsSnapshot& m);

/**
 * One complete ("X") Chrome-trace event, the event format of
 * writeChromeTrace(). `arg` >= 0 adds `"args":{"i":arg}` (the
 * explorer stores the design-point index).
 */
Json traceEventToJson(const std::string& cat, const std::string& name,
                      uint32_t tid, uint64_t ts, uint64_t dur,
                      int64_t arg = -1);

/**
 * Stream a trace snapshot as one Chrome-trace document
 * (`{"displayTimeUnit":"ms","traceEvents":[...],"otherData":
 * {"droppedEvents":n}}`) — the `dhdlc --trace` file and dhdld's
 * `GET /trace` body. Each thread
 * contributes a thread_name metadata event, so Perfetto labels rows
 * "worker-N", then its events in timestamp order, one per line. A
 * snapshot may hold 1<<20 events per thread, so events are rendered
 * one at a time rather than as one tree for the whole document.
 */
void writeChromeTrace(std::ostream& os, const obs::TraceSnapshot& trace);

} // namespace dhdl::serve

#endif // DHDL_SERVE_PROTOCOL_HH
