/**
 * @file
 * Metrics registry: named counters, gauges and fixed-bucket
 * histograms. Recording is lock-free on the hot path — counters and
 * histogram buckets live in thread-local shards of relaxed atomics,
 * merged only when a snapshot is taken — so the explorer's worker
 * pool can record per-point latencies at full evaluation throughput.
 *
 * Handles (Counter, Gauge, Histogram) are cheap value types holding
 * a slot id; construct them once (member or function-local static)
 * and record through them. Registration by name is idempotent: two
 * handles with the same name share the metric. A bounded slot table
 * keeps shards fixed-size; registrations past the cap are absorbed
 * by a sink slot and counted in `obs.metrics.dropped`.
 *
 * Naming convention: dotted lowercase paths, unit suffix where one
 * applies — `dse.stage.area.us`, `dse.points.evaluated`,
 * `cpu.pool.queue_depth`.
 */

#ifndef DHDL_OBS_METRICS_HH
#define DHDL_OBS_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hh"

namespace dhdl::obs {

/** Monotonic counter, sharded per thread. */
class Counter
{
  public:
    explicit Counter(const std::string& name);

    /** Add n to the calling thread's shard. */
    void add(uint64_t n = 1) const;

  private:
    uint32_t slot_;
};

/** Last-write-wins instantaneous value (global, not sharded). */
class Gauge
{
  public:
    explicit Gauge(const std::string& name);

    void set(int64_t v) const;
    void add(int64_t delta) const;

  private:
    uint32_t id_;
};

/**
 * Fixed-bucket histogram of non-negative integer observations
 * (latencies in microseconds, queue depths, ...). `bounds` are
 * ascending inclusive upper bucket edges; an implicit overflow
 * bucket catches everything above the last edge.
 */
class Histogram
{
  public:
    Histogram(const std::string& name, std::vector<uint64_t> bounds);

    void observe(uint64_t v) const;

  private:
    uint32_t slot_;      //!< First bucket slot in the shard.
    uint32_t nbounds_;   //!< Finite edges; buckets = nbounds_ + 1.
    const std::vector<uint64_t>* bounds_; //!< Registry-owned edges.
};

/** Merged view of one histogram. */
struct HistogramSnapshot {
    std::string name;
    std::vector<uint64_t> bounds;
    /** bounds.size() + 1 entries; the last is the overflow bucket. */
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    uint64_t sum = 0;

    double mean() const { return count ? double(sum) / double(count) : 0.0; }
};

/**
 * Point-in-time merge of every shard. Deterministic: entries are
 * sorted by name, values are sums over all threads that ever
 * recorded (a shard outlives its thread and passes to the next new
 * thread unzeroed).
 */
struct MetricsSnapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<HistogramSnapshot> histograms;

    /** Value of a counter by name; 0 when absent. */
    uint64_t counter(const std::string& name) const;

    /** Human-readable rendering (the `--profile` output). */
    void renderText(std::ostream& os) const;

    /**
     * Prometheus exposition-format rendering (the `dhdld` `/metrics`
     * endpoint). Dotted names become underscore-separated with a
     * `dhdl_` prefix (`dse.points.evaluated` →
     * `dhdl_dse_points_evaluated`); histograms render as cumulative
     * `_bucket{le=...}` series plus `_sum`/`_count`. Deterministic:
     * entries in snapshot (name-sorted) order.
     */
    void renderProm(std::ostream& os) const;
};

/** Merge all shards into a snapshot. Callable at any time. */
MetricsSnapshot snapshotMetrics();

/**
 * Zero every counter, gauge and histogram bucket (registrations are
 * kept). Test isolation only — racing recorders may leave partial
 * sums behind.
 */
void resetMetrics();

/** One-off counter add by name (cold paths with dynamic names). */
void addCounter(const std::string& name, uint64_t n);

} // namespace dhdl::obs

#endif // DHDL_OBS_METRICS_HH
