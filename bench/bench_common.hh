/**
 * @file
 * Shared helpers for the experiment benches: environment-variable
 * readers, the paper's dataset scale and DSE sample count,
 * Pareto-point selection, and table formatting.
 */

#ifndef DHDL_BENCH_BENCH_COMMON_HH
#define DHDL_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "apps/apps.hh"
#include "dse/explorer.hh"

namespace dhdl::bench {

/** Read a double knob from the environment. */
double envDouble(const char* name, double def);

/** Read an integer knob from the environment. */
int64_t envInt(const char* name, int64_t def);

/** Dataset scale of every bench: Table II sizes. */
inline constexpr double kBenchScale = 1.0;

/** DSE samples per benchmark: the paper's setting (Section IV-C). */
inline constexpr int kPaperPoints = 75000;

/** The process-wide explorer over calibrated estimators. */
const dse::Explorer& explorer();

/** The process-wide runtime estimator. */
const est::RuntimeEstimator& runtimeEstimator();

/**
 * Explore a design and return up to `take` Pareto points spread
 * evenly along the frontier (the paper selects five per benchmark).
 */
std::vector<dse::DesignPoint>
selectParetoPoints(const Graph& g, int max_points, int take,
                   uint64_t seed = 0xD5Eull);

/** Render a value with fixed precision (for table rows). */
std::string fmt(double v, int precision = 1);

/** Percent with one decimal, e.g. "4.8%". */
std::string pct(double fraction);

/** Print a horizontal rule of the given width. */
void rule(int width);

} // namespace dhdl::bench

#endif // DHDL_BENCH_BENCH_COMMON_HH
