/**
 * @file
 * Hybrid area estimation (Section IV-B2). Pipeline:
 *
 *  1. Count raw resources per node from the fitted template models
 *     (including delay-matching resources from ASAP slack analysis).
 *  2. Predict global post-P&R effects with small ANNs (11-6-1, one
 *     per factor): routing LUTs, duplicated registers, unavailable
 *     LUTs. Duplicated BRAMs are a linear function of routing LUTs.
 *  3. Add the effects to the raw counts, then model LUT packing
 *     ("the simple assumption that all packable LUTs will be
 *     packed"), pairing packable LUTs into compute units with two
 *     registers each, to obtain ALMs, DSPs and BRAMs.
 *
 * The estimator is calibrated once per device + toolchain: template
 * characterization plus ANN training on 200 random design samples.
 * The MAIA calibration is committed as data
 * (estimate/dhdl_calibration.txt) and compiled in, so a process loads
 * it instead of training; `dhdlc calibrate --out src/estimate`
 * regenerates it.
 */

#ifndef DHDL_ESTIMATE_AREA_ESTIMATOR_HH
#define DHDL_ESTIMATE_AREA_ESTIMATOR_HH

#include <iostream>
#include <memory>
#include <string_view>

#include "analysis/instance.hh"
#include "estimate/area_model.hh"
#include "ml/mlp.hh"
#include "ml/scaler.hh"

namespace dhdl::est {

/** Full area estimate with the intermediate effect predictions. */
struct AreaEstimate {
    Resources raw;          //!< Template-model resource counts.
    double routeLuts = 0;   //!< Predicted route-through LUTs.
    double dupRegs = 0;     //!< Predicted duplicated registers.
    double unavailLuts = 0; //!< Predicted unusable LUTs.
    double dupBrams = 0;    //!< Predicted duplicated block RAMs.
    double alms = 0;
    double luts = 0;
    double regs = 0;
    double dsps = 0;
    double brams = 0;

    bool
    fits(const fpga::Device& d) const
    {
        return alms <= double(d.alms) && dsps <= double(d.dsps) &&
               brams <= double(d.m20ks);
    }
};

/**
 * Reusable scratch storage for evaluate-many sweeps. One workspace
 * per evaluating thread; its vectors keep their capacity across
 * points so the steady state allocates nothing.
 */
struct AreaWorkspace {
    std::vector<TemplateInst> templates;
    std::vector<double> feat;       //!< per-template feature scratch
    std::vector<double> designFeat; //!< 11 ANN design features
    std::vector<double> scaled;     //!< scaled ANN input
    ml::MlpWorkspace mlp;           //!< MLP ping-pong scratch
};

/** Number of ANN design features per design (Section IV-B2). */
inline constexpr size_t kDesignFeatures = 11;

/**
 * The binding-invariant inputs of the ANN design features: five
 * features fixed by the design's templates, plus the device LUT
 * capacity the LUT-ratio feature divides by. Only the raw resource
 * totals vary per point.
 */
struct DesignInvariants {
    double log2n = 0;     //!< log2(1 + template count)
    double nCtrl = 0;     //!< control-template count
    double nMem = 0;      //!< on-chip memory template count
    double nXfer = 0;     //!< tile-transfer template count
    double bitsOverN = 0; //!< mean template bit width
    double lutsDenom = 1; //!< device LUT capacity (ratio feature)
};

/**
 * Binding-invariant compilation of one design's area estimate: every
 * template slot's linear-model bundle resolved and packed into
 * contiguous weight rows, plus the design's DesignInvariants. Built
 * once per explored design, shared read-only by every worker.
 *
 * A CtrlSeqOrMeta slot toggles between SeqCtrl and MetaPipeCtrl per
 * binding, so it carries both kinds' bundles and the batch kernel
 * selects per point. Both kinds count as control templates and share
 * a feature layout, so the invariant features stay invariant.
 */
class AreaBatchPlan
{
  public:
    AreaBatchPlan() = default;

    /**
     * False when some slot's template class is uncharacterized (or
     * fitted with a mismatched arity): batched evaluation must then
     * fall back to the scalar path, which reports the failure with
     * per-point diagnostics instead of throwing mid-batch.
     */
    bool ok() const { return ok_; }

    const DesignPlan* plan() const { return plan_; }

    /** One slot's packed model bundle(s): weights laid out for a
     *  single fused pass over the feature row. Public for the batch
     *  kernels in area_estimator.cc; only AreaEstimator builds them. */
    struct SlotKernel {
        const TemplateSlot* slot = nullptr;
        uint32_t nf = 0;    //!< feature count of the slot's kind
        bool dual = false;  //!< CtrlSeqOrMeta: [1] = MetaPipeCtrl
        /** [variant][lutsPack,lutsNoPack,regs,dsps,brams][feature] */
        double w[2][5][AreaModel::kMaxFeatures] = {};
        double b[2][5] = {};
    };

  private:
    friend class AreaEstimator;

    std::vector<SlotKernel> kernels_;
    const DesignPlan* plan_ = nullptr;
    DesignInvariants design_;
    bool ok_ = false;
};

/**
 * Structure-of-arrays scratch for batched estimation: per-point raw
 * totals from the fused slot kernels, then the batched ANN tail. One
 * workspace per evaluating thread; steady state allocates nothing.
 */
struct AreaBatchWorkspace {
    std::vector<Resources> raw;        //!< per-point raw totals
    std::vector<double> designFeat;    //!< n x 11 ANN features
    std::vector<double> scaled;        //!< n x 11 scaled rows
    std::vector<double> route;         //!< routeNet outputs
    std::vector<double> dupReg;        //!< dupRegNet outputs
    std::vector<double> unavail;       //!< unavailNet outputs
    ml::MlpWorkspace mlp;
};

/** Calibrated hybrid area estimator. */
class AreaEstimator
{
  public:
    /**
     * Calibrate against a toolchain: run the template
     * characterization sweep, fit the analytical models, then train
     * the effect ANNs on train_designs random design samples.
     */
    explicit AreaEstimator(const fpga::VendorToolchain& tc,
                           int train_designs = 200,
                           uint64_t seed = 0xA11CE);

    /**
     * Restore a previously calibrated estimator from a stream (see
     * save()); `dev` must be the device it was calibrated for. Throws
     * FatalError on a malformed file, or on models whose shapes the
     * estimator cannot use.
     */
    AreaEstimator(fpga::Device dev, std::istream& is);

    /** Persist the full calibration (template models, ANNs, scalers,
     *  BRAM-duplication fit, packing rate). */
    void save(std::ostream& os) const;

    /** Estimate a whole design instance. */
    AreaEstimate estimate(const Inst& inst) const;

    /**
     * Estimate a design instance reusing per-thread scratch storage;
     * ws.templates holds the expansion on return.
     */
    AreaEstimate estimate(const Inst& inst, AreaWorkspace& ws) const;

    /** Estimate a pre-expanded template list. */
    AreaEstimate
    estimateList(const std::vector<TemplateInst>& ts) const;

    /** estimateList with the full per-thread workspace (no allocs). */
    AreaEstimate estimateList(const std::vector<TemplateInst>& ts,
                              AreaWorkspace& ws) const;

    /**
     * Resolve every template slot of `plan` against the calibrated
     * models. Check ok() before using the result with estimateBatch;
     * a failed plan means the design has an uncharacterized template
     * class and points must take the scalar path.
     */
    AreaBatchPlan makeBatchPlan(const DesignPlan& plan) const;

    /**
     * Estimate insts[0..n) — n bindings of the batch plan's design —
     * into out[0..n). Iterates slot-outer: each template slot is
     * patched (patchTemplateFields), featurized (the same
     * AreaModel::featuresOf) and costed across the whole batch before
     * moving to the next slot, which turns the per-point model
     * lookups into contiguous SIMD-friendly loops. Every per-point
     * arithmetic expression and accumulation order matches the scalar
     * estimate() path exactly, so out[i] is bit-identical to
     * estimate(insts[i], ws).
     */
    void estimateBatch(const AreaBatchPlan& bp, const InstPool& insts,
                       size_t n, AreaBatchWorkspace& ws,
                       AreaEstimate* out) const;

    /**
     * Ablation: analytic-only estimate with fixed average correction
     * factors instead of the ANNs (used by bench/ablation_estimator).
     */
    AreaEstimate
    estimateAnalyticOnly(const std::vector<TemplateInst>& ts) const;

    const AreaModel& model() const { return model_; }
    const fpga::Device& device() const { return dev_; }

    /** The 11 ANN input features for a design (Section IV-B2). */
    static std::vector<double>
    designFeatures(const AreaModel& model, const fpga::Device& dev,
                   const std::vector<TemplateInst>& ts, Resources raw);

    /** designFeatures() into a caller-owned buffer (no allocation). */
    static void
    designFeaturesInto(const AreaModel& model, const fpga::Device& dev,
                       const std::vector<TemplateInst>& ts,
                       Resources raw, std::vector<double>& out);

  private:
    AreaEstimate
    assemble(Resources raw, double route_frac, double dup_reg_frac,
             double unavail_frac, double pack_rate) const;

    fpga::Device dev_;
    AreaModel model_;
    ml::Mlp routeNet_;
    ml::Mlp dupRegNet_;
    ml::Mlp unavailNet_;
    ml::MinMaxScaler featScaler_;
    ml::MinMaxScaler targetScaler_; //!< 3 columns: route/dupReg/unavail.
    ml::LinearModel bramDup_;       //!< dupBrams ~ routeLuts.
    /**
     * Calibrated pairwise packing rate: fraction of packable LUTs the
     * toolchain actually packs, fit on the training designs (the
     * paper assumes 1.0 after observing ~0.8 in practice; calibrating
     * removes the systematic ALM bias of that assumption).
     */
    double packRate_ = 1.0;
};

/**
 * The committed calibration against the default MAIA board toolchain,
 * in save() format: the bytes of
 * AreaEstimator(defaultToolchain()).save(), compiled in from
 * estimate/dhdl_calibration.txt.
 */
std::string_view embeddedCalibration();

/**
 * Process-wide estimator for the default MAIA board toolchain, loaded
 * once, lazily, from embeddedCalibration(); no process trains it.
 */
const AreaEstimator& calibratedEstimator();

/** The toolchain instance paired with calibratedEstimator(). */
const fpga::VendorToolchain& defaultToolchain();

} // namespace dhdl::est

#endif // DHDL_ESTIMATE_AREA_ESTIMATOR_HH
