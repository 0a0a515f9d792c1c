/**
 * @file
 * Fault-injection harness for crash-safety testing. Production code
 * carries a small number of named injection points (the explorer's
 * evaluation loop, the checkpoint writer); each point is armed by a
 * spec string — programmatically via configure() for tests, or from
 * the DHDL_FAULT environment variable so the CLI and CI chaos jobs
 * can inject faults into unmodified binaries:
 *
 *   DHDL_FAULT="crash-after-evals=40"          kill -9 self after
 *                                              the 40th evaluation
 *   DHDL_FAULT="hang-after-evals=10,hang-seconds=2"
 *                                              sleep 2s after the
 *                                              10th evaluation
 *   DHDL_FAULT="torn-checkpoint=2"             the 2nd checkpoint
 *                                              write leaves a torn
 *                                              tail (mid-record cut)
 *   DHDL_FAULT="corrupt-record=5"              flip one byte in data
 *                                              record 5 of every
 *                                              checkpoint write
 *
 * Armed-but-never-hit points are harmless; a disarmed harness costs
 * one relaxed atomic load per check. Counting-style points
 * (crash/hang/torn) fire exactly once, on the N-th occurrence; the
 * corrupt-record point applies to every checkpoint write while
 * armed, so the file on disk is corrupted no matter which write was
 * the last. Every firing increments an obs counter
 * (`fault.fired.<point>`), so recoveries are attributable in metrics
 * output.
 *
 * The harness is process-wide and thread-safe. It exists to *cause*
 * failures; the recovery paths it exercises (torn-tail truncation,
 * CRC record rejection, resume from the last durable checkpoint)
 * are the product.
 */

#ifndef DHDL_CORE_FAULTINJECT_HH
#define DHDL_CORE_FAULTINJECT_HH

#include <cstdint>
#include <optional>
#include <string>

namespace dhdl::fault {

/** Named injection points threaded through production code. */
enum class Point : uint8_t {
    CrashAfterEvals, //!< SIGKILL self after N completed evaluations.
    HangAfterEvals,  //!< Sleep hangSeconds() after N evaluations.
    TornCheckpoint,  //!< N-th checkpoint write is cut mid-record.
    CorruptRecord,   //!< Flip a byte in data record N on every write.
    kCount,
};

/** Stable spec-string key of a point ("crash-after-evals", ...). */
const char* pointName(Point p);

/**
 * Arm points from a spec: comma-separated `point=value` pairs using
 * the names above, plus `hang-seconds=S`. Throws FatalError on an
 * unknown key or a non-positive value. Replaces any prior
 * configuration; occurrence counters restart at zero.
 */
void configure(const std::string& spec);

/**
 * Arm from the DHDL_FAULT environment variable. Returns true when
 * the variable was set and parsed. Called once per process by the
 * layers that host injection points; safe to call repeatedly.
 */
bool configureFromEnv();

/** Disarm every point and zero all counters. */
void reset();

/** True when any point is armed (one relaxed load). */
bool active();

/** The armed threshold of a point; nullopt when disarmed. */
std::optional<int64_t> armed(Point p);

/**
 * Count one occurrence at a point. Returns true exactly when this
 * occurrence is the armed N-th (one-shot) — the caller then performs
 * the fault. For CorruptRecord the caller instead reads armed() and
 * applies the corruption itself; hit() is for counting-style points.
 */
bool hit(Point p);

/** Duration of an injected hang (spec `hang-seconds`, default 3600). */
double hangSeconds();

/**
 * Die the way a kill -9 does: no unwinding, no atexit, no flush.
 * raise(SIGKILL), with _Exit as a theoretical fallback.
 */
[[noreturn]] void crashHard();

/** Block the calling thread for `seconds` (injected hang body). */
void sleepFor(double seconds);

} // namespace dhdl::fault

#endif // DHDL_CORE_FAULTINJECT_HH
