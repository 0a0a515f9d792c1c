/**
 * @file
 * Structured tracing: scoped spans recorded into per-thread ring
 * buffers and drained by snapshotTrace(), which serve/protocol
 * renders as Chrome-trace JSON (loadable in Perfetto /
 * chrome://tracing). A span is one complete "X" event — name,
 * category, start timestamp, duration, thread id, optional integer
 * argument (the explorer stores the design-point index).
 *
 * Ring buffers hold kTraceRingCapacity events per thread: when a
 * sweep records more events than fit, the oldest are overwritten and
 * the snapshot reports how many were dropped. A thread that exits
 * leaves its ring, events included, to the next new thread. Each
 * buffer is written only by its owning thread under a per-thread
 * mutex that snapshotTrace() takes when draining — uncontended in
 * steady state, so recording stays O(copy one small struct).
 *
 * Instrument with the DHDL_OBS_SPAN macro, or call recordSpan()
 * directly when the timestamps already exist — the evaluator's stage
 * spans and its `dse.stage.<stage>.us` counters read the same five
 * clock reads per pass, so tracing adds no extra clock calls on the
 * hot path.
 */

#ifndef DHDL_OBS_TRACE_HH
#define DHDL_OBS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hh"

namespace dhdl::obs {

/** Max bytes (incl. NUL) of a span name / category kept per event. */
constexpr size_t kTraceNameCap = 48;
constexpr size_t kTraceCatCap = 16;

/** Events each thread's ring buffer holds before it drops oldest. */
constexpr size_t kTraceRingCapacity = 16384;

/** One completed span in a ring buffer (POD, no heap). */
struct TraceEvent {
    char name[kTraceNameCap];
    char cat[kTraceCatCap];
    uint64_t ts = 0;  //!< Start, trace-clock micros.
    uint64_t dur = 0; //!< Duration, micros.
    int64_t arg = -1; //!< Rendered as args:{"i":...} when >= 0.
};

/**
 * Record a completed span with caller-supplied timestamps.
 * `name`/`cat` are truncated to the event caps.
 */
void recordSpan(const char* cat, const char* name, uint64_t tsMicros,
                uint64_t durMicros, int64_t arg = -1);

/** RAII span: times its own scope on the trace clock. */
class TraceSpan
{
  public:
    TraceSpan(const char* cat, const char* name)
        : cat_(cat), name_(name), start_(nowMicros())
    {
    }

    /** Dynamic names (pass names): pointer must outlive the span. */
    TraceSpan(const char* cat, const std::string& name)
        : TraceSpan(cat, name.c_str())
    {
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

    /** Attach the integer argument emitted with the event. */
    void setArg(int64_t arg) { arg_ = arg; }

    ~TraceSpan()
    {
        recordSpan(cat_, name_, start_, nowMicros() - start_, arg_);
    }

  private:
    const char* cat_;
    const char* name_;
    uint64_t start_;
    int64_t arg_ = -1;
};

/** Occupancy/drop accounting across all thread ring buffers. */
struct TraceStats {
    uint64_t recorded = 0; //!< Events ever recorded.
    uint64_t retained = 0; //!< Events currently held.
    uint64_t dropped = 0;  //!< Overwritten by ring wraparound.
};

TraceStats traceStats();

/** One thread's retained events, in timestamp order. */
struct ThreadTrace {
    uint32_t tid = 0;
    std::string name; //!< setThreadName() label, e.g. "worker-3".
    std::vector<TraceEvent> events;
};

/** Everything the rings hold, drained under their locks. */
struct TraceSnapshot {
    /** Threads with at least one retained event, in tid order. */
    std::vector<ThreadTrace> threads;
    uint64_t dropped = 0; //!< Events lost to ring wraparound.
};

/**
 * Copy out every retained event. serve/protocol renders the snapshot
 * as Chrome-trace JSON (serve::writeChromeTrace); obs itself renders
 * no JSON.
 */
TraceSnapshot snapshotTrace();

/** Drop all recorded events (buffers stay allocated). Tests only. */
void resetTrace();

} // namespace dhdl::obs

// Scoped-span convenience macro: times the rest of the enclosing
// scope.
#define DHDL_OBS_CONCAT_IMPL(a, b) a##b
#define DHDL_OBS_CONCAT(a, b) DHDL_OBS_CONCAT_IMPL(a, b)
#define DHDL_OBS_SPAN(cat, name)                                      \
    ::dhdl::obs::TraceSpan DHDL_OBS_CONCAT(obs_span_, __LINE__)(cat,  \
                                                                name)

#endif // DHDL_OBS_TRACE_HH
