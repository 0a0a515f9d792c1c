/**
 * @file
 * Template-level analytical area models. Each template class (kind,
 * plus operator and number type for datapath templates) gets five
 * linear models — packable LUTs, unpackable LUTs, registers, DSPs and
 * block RAMs — fit against isolated characterization synthesis runs
 * (Section IV-B: "Using this data, we create analytical models of
 * each DHDL template's resource requirements"). The models are
 * application-independent and characterized once per device/toolchain.
 */

#ifndef DHDL_ESTIMATE_AREA_MODEL_HH
#define DHDL_ESTIMATE_AREA_MODEL_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <unordered_map>
#include <vector>

#include "analysis/critical_path.hh"
#include "fpga/characterize.hh"
#include "ml/linreg.hh"

namespace dhdl::est {

/** Fitted per-template analytical resource models. */
class AreaModel
{
  public:
    /** Fit from characterization observations. */
    void fit(const std::vector<fpga::TemplateSample>& samples);

    /** Predicted raw resources of one template instance. */
    Resources cost(const TemplateInst& t) const;

    /**
     * Scratch-reusing variant for evaluate-many sweeps: `feat` is
     * overwritten with the instance's feature vector (its capacity is
     * reused across calls).
     */
    Resources cost(const TemplateInst& t,
                   std::vector<double>& feat) const;

    /** Predicted raw resources of a whole template list. */
    Resources rawCount(const std::vector<TemplateInst>& ts) const;

    /** Model-class key for a template instance (exposed for tests). */
    static uint64_t classKey(const TemplateInst& t);

    /** Feature vector used for the class's regression. */
    static std::vector<double> features(const TemplateInst& t);

    /** features(), written into reusable scratch storage. */
    static void featuresInto(const TemplateInst& t,
                             std::vector<double>& out);

    /** Upper bound on the per-template feature count (BramInst). */
    static constexpr size_t kMaxFeatures = 6;

    /**
     * features() into a raw buffer of at least kMaxFeatures slots;
     * returns the kind's feature count. The vector overload and the
     * batched estimator both go through featuresOf(), so every path
     * computes bit-identical values.
     */
    static size_t
    featuresInto(const TemplateInst& t, double* out)
    {
        return featuresOf(t.tkind, t, out);
    }

    /**
     * The one definition of the feature expressions: kind `k`'s
     * features of `t` (k is t.tkind, or a kind sharing its feature
     * layout). Inline so the batched estimator, which passes each
     * slot's kind as a compile-time constant, folds the switch out of
     * its per-point loops.
     */
    static size_t featuresOf(TemplateKind k, const TemplateInst& t,
                             double* out);

    /**
     * The class's fitted 5-model bundle (after the kind-wide default
     * fallback), or null when the class is uncharacterized. The
     * batched evaluator resolves every slot through this at batch-
     * plan build time so an uncharacterized class degrades to the
     * scalar path's per-point diagnostics instead of throwing from
     * inside a batch kernel.
     */
    const std::array<ml::LinearModel, 5>*
    tryModelsFor(const TemplateInst& t) const noexcept;

    size_t numClasses() const { return models_.size(); }

    /** Persist the fitted per-class models (text, versioned). */
    void save(std::ostream& os) const;

    /** Restore previously persisted models. */
    static AreaModel load(std::istream& is);

  private:
    /** The 5-model bundle for a template class, with the kind-wide
     *  default fallback; throws when uncharacterized. */
    const std::array<ml::LinearModel, 5>&
    modelsFor(const TemplateInst& t) const;

    /**
     * Rebuild the per-kind resolved table. Kinds whose class key is
     * op-independent (everything except PrimOp/ReduceTree) resolve to
     * one model bundle; copying it into a flat array at fit/load time
     * removes the per-cost hash lookup from the sweep's hot path.
     */
    void resolve();

    /** lutsPack, lutsNoPack, regs, dsps, brams. */
    std::unordered_map<uint64_t, std::array<ml::LinearModel, 5>> models_;

    struct Resolved {
        bool present = false;
        std::array<ml::LinearModel, 5> models;
    };
    std::array<Resolved, kNumTemplateKinds> resolved_;
};

inline size_t
AreaModel::featuresOf(TemplateKind k, const TemplateInst& t, double* out)
{
    double lanes = double(t.lanes);
    double vec = double(std::max<int64_t>(1, t.vec));
    double bits = double(t.bits);
    double banks = double(std::max(1, t.banks));
    double copies = lanes * (t.doubleBuf ? 2.0 : 1.0);

    switch (k) {
      case TemplateKind::PrimOp:
        out[0] = lanes;
        out[1] = lanes * bits;
        out[2] = lanes * bits * bits / 64.0;
        return 3;
      case TemplateKind::LoadStore:
        out[0] = lanes;
        out[1] = lanes * bits;
        out[2] = lanes * banks;
        out[3] = lanes * bits * std::log2(std::max(1.0, banks));
        return 4;
      case TemplateKind::BramInst: {
        // Physical block count is a deterministic function of the
        // geometry; give it to the regression as a feature. Banks of
        // 640 bits or less map to MLAB LUT-RAM, not M20K.
        double depth = std::ceil(double(t.elems) / banks);
        bool mlab = depth * bits <= 640.0;
        double phys = mlab ? 0.0
                           : std::max(std::ceil(depth * bits / 20480.0),
                                      std::ceil(bits / 40.0)) *
                                 banks * copies;
        double mlab_bits = mlab ? depth * bits * banks * copies : 0.0;
        out[0] = phys;
        out[1] = mlab_bits;
        out[2] = lanes;
        out[3] = lanes * banks;
        out[4] = lanes * bits * banks / 32.0;
        out[5] = copies * bits * banks / 32.0;
        return 6;
      }
      case TemplateKind::RegInst:
        out[0] = copies * bits;
        out[1] = lanes;
        out[2] = lanes * bits;
        return 3;
      case TemplateKind::QueueInst:
        out[0] = lanes * double(t.depth) * bits;
        out[1] = lanes;
        return 2;
      case TemplateKind::CounterInst:
        out[0] = lanes * double(t.ctrDims);
        out[1] = lanes * vec;
        out[2] = lanes;
        return 3;
      case TemplateKind::PipeCtrl:
        out[0] = lanes;
        out[1] = lanes * vec;
        return 2;
      case TemplateKind::SeqCtrl:
      case TemplateKind::ParCtrl:
      case TemplateKind::MetaPipeCtrl:
        out[0] = lanes;
        out[1] = lanes * double(t.stages);
        out[2] = lanes * vec;
        return 3;
      case TemplateKind::TileTransfer: {
        double width = bits * vec;
        out[0] = lanes;
        out[1] = lanes * width;
        out[2] = lanes * std::log2(1.0 + double(t.tileElems));
        out[3] = lanes * std::ceil(512.0 * width / 20480.0);
        return 4;
      }
      case TemplateKind::ReduceTree:
        out[0] = lanes * std::max(0.0, vec - 1.0);
        out[1] = lanes * std::log2(1.0 + vec) * bits / 32.0;
        out[2] = lanes;
        return 3;
      case TemplateKind::DelayLine: {
        bool fifo = t.depth > kBramDelayThreshold;
        double bits_total = t.delayBits * lanes;
        out[0] = fifo ? 0.0 : bits_total;
        out[1] = fifo ? std::ceil(t.delayBits / 20480.0) * lanes : 0.0;
        out[2] = lanes;
        return 3;
      }
    }
    out[0] = lanes;
    return 1;
}

} // namespace dhdl::est

#endif // DHDL_ESTIMATE_AREA_MODEL_HH
