/**
 * @file
 * High-level power estimation — the extension axis the paper points
 * at via Chen et al. [26] ("perform design space exploration using a
 * high-level power estimator ... characterize area usage of
 * primitives and fit linear models"). Mirrors the area methodology:
 * per-template linear power models fit from isolated vectorless
 * power reports, plus a design-level linear correction for the clock
 * tree and static leakage, fit on the same random design samples the
 * area ANNs train on.
 */

#ifndef DHDL_ESTIMATE_POWER_MODEL_HH
#define DHDL_ESTIMATE_POWER_MODEL_HH

#include <unordered_map>

#include "analysis/instance.hh"
#include "fpga/characterize.hh"
#include "ml/linreg.hh"

namespace dhdl::est {

/** Calibrated template-level + design-level power estimator. */
class PowerEstimator
{
  public:
    /** Calibrate against a toolchain (characterization + fit). */
    explicit PowerEstimator(const fpga::VendorToolchain& tc,
                            int train_designs = 120,
                            uint64_t seed = 0x90E7ull);

    /** Estimated total power of a design instance, mW. */
    double estimateMw(const Inst& inst) const;

    /** Estimated total power of a template list, mW. */
    double estimateListMw(const std::vector<TemplateInst>& ts) const;

    /** Template-level dynamic power only (no clock tree/static). */
    double templateMw(const TemplateInst& t) const;

  private:
    std::unordered_map<uint64_t, ml::LinearModel> models_;
    ml::LinearModel designLevel_; //!< total ~ [sum dyn, raw LUTs].
};

/** Process-wide power estimator against the default toolchain. */
const PowerEstimator& calibratedPowerEstimator();

} // namespace dhdl::est

#endif // DHDL_ESTIMATE_POWER_MODEL_HH
