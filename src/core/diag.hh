/**
 * @file
 * Structured diagnostics. Exceptions (core/error.hh) are the right
 * tool when a single computation must abort, but batch layers — the
 * design space explorer evaluates up to 75,000 points per run — need
 * to *record* a failure and keep going. This module provides:
 *
 *  - Diag: one diagnostic with a code, severity, pipeline stage and
 *    contextual payload (design point index, parameter binding);
 *  - Status: a value-or-diagnostic return type for fallible calls
 *    that should not throw;
 *  - DiagSink: a thread-safe collector used by the parallel explorer;
 *  - diagFromException()/topReasons(): conversion and aggregation
 *    helpers for reporting "K failed (top reasons: ...)" summaries.
 */

#ifndef DHDL_CORE_DIAG_HH
#define DHDL_CORE_DIAG_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hh"

namespace dhdl {

/** Severity of a diagnostic. */
enum class DiagSeverity : uint8_t {
    Warning, //!< Degraded but intentional (budget hit, checkpoint skew).
    Error,   //!< A unit of work was lost (a design point failed).
};

/** One structured diagnostic. */
struct Diag {
    DiagCode code = DiagCode::Unknown;
    DiagSeverity severity = DiagSeverity::Error;
    std::string message;
    /** Pipeline stage that reported it ("instantiate", "area", ...). */
    std::string stage;
    /** Free-form context, e.g. the parameter binding "ts=64 par=4". */
    std::string context;
    /** Index of the design point concerned; -1 when not point-bound. */
    int64_t pointIndex = -1;
    /**
     * Thread that produced the diagnostic, as a stable obs name
     * ("worker-2", "main"), never a raw std::thread::id. Display
     * only: excluded from checkpoints and golden fixtures because
     * point-to-worker assignment depends on scheduling.
     */
    std::string worker;

    /** One-line human-readable rendering. */
    std::string str() const;

    /** A warning with just a code, a stage and a message. */
    static Diag
    warning(DiagCode code, std::string stage, std::string message)
    {
        Diag d;
        d.code = code;
        d.severity = DiagSeverity::Warning;
        d.stage = std::move(stage);
        d.message = std::move(message);
        return d;
    }
};

/**
 * Result of a fallible call that must not throw across the caller's
 * boundary: either ok, or an error Diag explaining the failure.
 */
class Status
{
  public:
    /** Default-constructed Status is success. */
    Status() = default;

    static Status
    error(Diag d)
    {
        Status s;
        s.ok_ = false;
        s.diag_ = std::move(d);
        return s;
    }

    /** An error with just a code, a stage and a message. */
    static Status
    error(DiagCode code, std::string stage, std::string message)
    {
        Diag d;
        d.code = code;
        d.stage = std::move(stage);
        d.message = std::move(message);
        return error(std::move(d));
    }

    bool ok() const { return ok_; }
    explicit operator bool() const { return ok_; }

    /** The diagnostic; only meaningful when !ok(). */
    const Diag& diag() const { return diag_; }

  private:
    bool ok_ = true;
    Diag diag_;
};

/**
 * Thread-safe diagnostic collector. Worker threads report() into it
 * concurrently; the owner drains it once the batch completes. Order
 * of insertion is whatever the threads raced to — callers that need
 * determinism sort the drained vector (e.g. by pointIndex).
 */
class DiagSink
{
  public:
    void report(Diag d);

    size_t errorCount() const;
    size_t warningCount() const;
    size_t size() const;

    /** Copy of everything reported so far. */
    std::vector<Diag> snapshot() const;

    /** Move out everything reported so far, leaving the sink empty. */
    std::vector<Diag> drain();

  private:
    mutable std::mutex mu_;
    std::vector<Diag> diags_;
    size_t errors_ = 0;
    size_t warnings_ = 0;
};

/**
 * Convert the in-flight exception into a Diag. Must be called from
 * inside a catch block. FatalError/PanicError keep their DiagCode;
 * anything else maps to DiagCode::Unknown.
 */
Diag diagFromCurrentException(const std::string& stage);

/**
 * Aggregate error diagnostics into the most frequent failure
 * reasons: groups by (code, stage), returns up to `top` groups as
 * (label, count) sorted by descending count. The label carries one
 * exemplar message so reports stay actionable.
 */
std::vector<std::pair<std::string, size_t>>
topReasons(const std::vector<Diag>& diags, size_t top = 5);

} // namespace dhdl

#endif // DHDL_CORE_DIAG_HH
