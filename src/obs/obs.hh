/**
 * @file
 * Observability core: the trace clock and per-thread identity. The
 * obs subsystem (metrics.hh, trace.hh) is the single source of truth
 * for timing data across the toolchain — the DSE evaluator's stage
 * times, the pass manager's per-pass wall-clocks and
 * `dhdlc --profile` all render the same registry snapshot.
 *
 * Design rules:
 *
 *  - Recording never perturbs results. Instrumentation writes only
 *    to obs-owned state (thread-local metric shards and trace ring
 *    buffers); the golden suites pin every output byte for byte.
 *  - Recording is always on and stays off the critical path: one
 *    relaxed atomic add per metric, one uncontended lock per span.
 *    `dhdlc --trace/--metrics/--profile` only choose what gets
 *    written.
 *  - Memory is bounded by the threads alive at once: a thread's
 *    state goes back to a free list when it exits, and the next new
 *    thread reuses it.
 *  - No dependency on dhdl_core: obs sits below every other library.
 */

#ifndef DHDL_OBS_OBS_HH
#define DHDL_OBS_OBS_HH

#include <chrono>
#include <cstdint>
#include <string>

namespace dhdl::obs {

/**
 * Microseconds on the trace clock (steady, starts near process
 * start). All trace timestamps and span durations use this clock.
 */
uint64_t nowMicros();

/** Convert a steady_clock time point onto the trace clock. */
uint64_t toMicros(std::chrono::steady_clock::time_point tp);

/**
 * Small dense id of the calling thread, assigned on first use in
 * registration order (the main thread is almost always 0). Stable
 * for the thread's lifetime; trace events carry it as "tid". A new
 * thread may reuse the id (and the metric shard and trace ring) of
 * one that has exited.
 */
uint32_t threadId();

/**
 * Name the calling thread for trace attribution ("worker-3"). The
 * thread pool names its workers; unnamed threads render as
 * "thread-N"; diagnostics carry the name to attribute work.
 */
void setThreadName(const std::string& name);

/** The calling thread's name (copy; safe to hold across threads). */
std::string threadName();

} // namespace dhdl::obs

#endif // DHDL_OBS_OBS_HH
