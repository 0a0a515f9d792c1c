/**
 * @file
 * Plain-text serialization for the ML substrate. Calibrating the
 * estimators (template characterization + ANN training) is a one-off
 * per device + toolchain; persisting the fitted models lets tools
 * skip recalibration across processes. The format is line-oriented
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
 * refused the same way. The tryLoad*() wrappers return the failure
 * as a structured Status for callers that must not throw.
 */

#ifndef DHDL_ML_SERIALIZE_HH
#define DHDL_ML_SERIALIZE_HH

#include <iostream>
#include <string>
#include <vector>

#include "core/diag.hh"
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

/**
 * Non-throwing loaders: the ParseError comes back as an error
 * Status instead of an exception, for callers (tools, services)
 * where a damaged calibration file must degrade, not die.
 */
Status tryLoadLinear(std::istream& is, LinearModel& out);
Status tryLoadMlp(std::istream& is, Mlp& out);
Status tryLoadScaler(std::istream& is, MinMaxScaler& out);

/**
 * A complete surrogate artifact: the feature and target scalers plus
 * the per-target models, bundled so `dhdlc explore --strategy
 * surrogate --save-model/--load-model` moves one self-validating
 * file. Either the Mlp or the LinearModel vector is populated
 * (`useMlp` says which); models are per-target, in target order.
 */
struct SurrogateBundle {
    MinMaxScaler features;
    MinMaxScaler targets;
    bool useMlp = true;
    std::vector<Mlp> nets;
    std::vector<LinearModel> linears;

    size_t
    numModels() const
    {
        return useMlp ? nets.size() : linears.size();
    }
};

/**
 * Bundle framing hardens the whole artifact, not just each record: a
 * `# dhdl-surrogate v1 <bytes> <crc32>` header carries the byte count
 * and IEEE CRC-32 of the serialized body, verified before any record
 * is parsed. Truncation, bit flips and foreign files all fail as
 * structured ParseErrors (exercised by the misuse corpus), never as
 * partial loads.
 */
void saveSurrogateBundle(std::ostream& os, const SurrogateBundle& b);

/** Load and fully validate a bundle; throws FatalError(ParseError). */
SurrogateBundle loadSurrogateBundle(std::istream& is);

/** Non-throwing form of loadSurrogateBundle(). */
Status tryLoadSurrogateBundle(std::istream& is, SurrogateBundle& out);

} // namespace dhdl::ml

#endif // DHDL_ML_SERIALIZE_HH
