/**
 * @file
 * Shared pieces of the dsebench harness: the run options, the
 * bench-side span recorder used by the traced replays, and the
 * outcome every workload reports.
 *
 * The replays time each layer from the outside: a span wraps every
 * call the harness makes into a layer's public entry point, in the
 * order the search driver or the server makes it. Nothing inside the
 * program is instrumented, so the untraced end-to-end runs execute
 * exactly the code a user runs (DHDL_OBS stays unset).
 */

#ifndef DSEBENCH_HARNESS_HH
#define DSEBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "dse/explorer.hh"
#include "estimate/area_estimator.hh"
#include "estimate/runtime_estimator.hh"

namespace dsebench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Self-test sizes: a few thousand points instead of 75,000. */
    bool shortMode = false;
    /** Scratch directory inside the checkout (checkpoint files). */
    std::string tmpDir = ".";
    /** Chrome-trace output of the traced replay; empty = none. */
    std::string traceOut;
    /** Threads for the parallel configurations: min(4, nproc). */
    int threads = 1;
};

/** The calibrated estimators every workload runs against. */
struct Estimators {
    const dhdl::est::AreaEstimator& area;
    const dhdl::est::RuntimeEstimator& runtime;
};

/** Per-layer totals of one replayed repeat: seconds or counts. */
using Layers = std::map<std::string, double>;

/**
 * Bench-side span recorder. Spans are kept in memory (capped) and
 * written as one Chrome trace when the run ends; each span's
 * duration is also added to the caller's Layers total. Safe to call
 * from pool workers.
 */
class Tracer
{
  public:
    /** Time `f()` as one span named `layer`, adding its seconds to
     *  `into[layer]`. */
    template <class F>
    void
    span(const char* layer, Layers& into, F&& f)
    {
        const auto t0 = Clock::now();
        f();
        const auto t1 = Clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        record(layer, t0, t1);
        std::lock_guard<std::mutex> lk(mu_);
        into[layer] += s;
    }

    /** Record an already-timed span (no Layers update). */
    void record(const char* layer, Clock::time_point t0,
                Clock::time_point t1);

    /** Write every kept span as Chrome-trace JSON; false on I/O
     *  failure. */
    bool write(const std::string& path) const;

  private:
    struct Span {
        const char* name;
        double startUs;
        double durUs;
        uint64_t tid;
    };
    static constexpr size_t kMaxSpans = 400000;

    mutable std::mutex mu_;
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
    Clock::time_point origin_ = Clock::now();
};

/** A named value with its unit, for the detail line. */
struct Detail {
    double value = 0;
    std::string unit;
};

/** What one workload run measured and checked. */
struct Outcome {
    /** Operations attempted and failed (refused, errored or wrong
     *  output); their ratio is the run's error rate. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Generic end-to-end metrics (all but setup_s). */
    double ptsPerSec = 0;
    double opP50Ms = 0;
    /** Per-layer metrics of the traced replay. */
    Layers layers;
    /** The workload's own named metrics and provenance figures. */
    std::map<std::string, Detail> detail;
    /** One line per failed check, printed to stderr. */
    std::vector<std::string> problems;

    void
    fail(std::string why)
    {
        ++failed;
        problems.push_back(std::move(why));
    }
};

/** Median of a sample (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile p in [0, 1] (0 when empty). */
double percentile(std::vector<double> v, double p);

/** The 7 Table II apps plus conv2d, in paper order. */
const std::vector<std::string>& sweepApps();

/** Load a registry design and run the standard pass pipeline (the
 *  `dhdlc` load path); throws on a design that fails it. */
dhdl::Graph buildDesign(const std::string& name, double scale);

/** Derive a per-stream explore seed from the run seed. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/** A Pareto front as (index, alms, cycles) triples, the form every
 *  front-equality check compares. */
using Front = std::vector<std::tuple<size_t, double, double>>;

/** The front `idx` of `points`. */
Front frontOf(const std::vector<dhdl::dse::DesignPoint>& points,
              const std::vector<size_t>& idx);

/** The front of an explore result. */
Front frontOf(const dhdl::dse::ExploreResult& r);

Outcome runSweep(const Options& o, const Estimators& est, Tracer& tr);
Outcome runCheckpoint(const Options& o, const Estimators& est,
                      Tracer& tr);
Outcome runSurrogate(const Options& o, const Estimators& est,
                     Tracer& tr);
Outcome runServeMix(const Options& o, const Estimators& est,
                    Tracer& tr);

} // namespace dsebench

#endif // DSEBENCH_HARNESS_HH
