/**
 * @file
 * Plain-text serialization for the ML substrate. Calibrating the
 * estimators (template characterization + ANN training) is a one-off
 * per device + toolchain; the MAIA calibration is committed in this
 * format and compiled in (est::embeddedCalibration()), so no process
 * retrains it. The format is line-oriented
 * and versioned: a `# dhdl-model v1` magic line, then a
 * `<tag> <count> v1` record header, then whitespace-separated
 * doubles written with max_digits10 so round-trips are bit-exact.
 *
 * Robustness: loaders validate everything before allocating or
 * constructing — unknown magic versions, tag mismatches, absurd
 * element counts (a corrupted count line must not become a
 * multi-gigabyte allocation), non-integral or out-of-range MLP layer
 * sizes, and truncated payloads are all rejected with a FatalError
 * carrying DiagCode::ParseError; a short read can never yield
 * uninitialized doubles or UB. A record without the magic line is
 * refused the same way.
 *
 * The one reader is est::AreaEstimator(device, stream) (with its
 * AreaModel::load), which loads the embedded calibration. The DSE
 * surrogate keeps its models in memory for one run and writes no
 * file.
 */

#ifndef DHDL_ML_SERIALIZE_HH
#define DHDL_ML_SERIALIZE_HH

#include <iostream>
#include <string>
#include <vector>

#include "ml/linreg.hh"
#include "ml/mlp.hh"
#include "ml/scaler.hh"

namespace dhdl::ml {

/** Hard ceiling on doubles per record: rejects corrupted counts. */
inline constexpr size_t kMaxModelDoubles = 16u << 20;

/** Write a tagged vector of doubles (with the magic line). */
void writeDoubles(std::ostream& os, const std::string& tag,
                  const std::vector<double>& v);

/**
 * Read a tagged vector of doubles. Throws FatalError
 * (DiagCode::ParseError) on unknown magic version, tag mismatch,
 * out-of-range count, or truncated payload.
 */
std::vector<double> readDoubles(std::istream& is,
                                const std::string& tag);

void saveLinear(std::ostream& os, const LinearModel& m);
LinearModel loadLinear(std::istream& is);

void saveMlp(std::ostream& os, const Mlp& net);
Mlp loadMlp(std::istream& is);

void saveScaler(std::ostream& os, const MinMaxScaler& s);
MinMaxScaler loadScaler(std::istream& is);

} // namespace dhdl::ml

#endif // DHDL_ML_SERIALIZE_HH
