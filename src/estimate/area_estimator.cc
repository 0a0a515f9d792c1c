#include "estimate/area_estimator.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "ml/serialize.hh"

namespace dhdl::est {

std::vector<double>
AreaEstimator::designFeatures(const AreaModel& model,
                              const fpga::Device& dev,
                              const std::vector<TemplateInst>& ts,
                              Resources raw)
{
    std::vector<double> out;
    designFeaturesInto(model, dev, ts, raw, out);
    return out;
}

namespace {

/**
 * The binding-invariant design features of a template sequence;
 * `tmpl` maps an element to its template, of which only the kind and
 * bit width are read.
 */
template <class Range, class Tmpl>
DesignInvariants
invariantsOf(const fpga::Device& dev, const Range& r, Tmpl tmpl)
{
    DesignInvariants di;
    double bits_sum = 0;
    for (const auto& e : r) {
        const TemplateInst& t = tmpl(e);
        switch (templateClassOf(t.tkind)) {
          case TemplateClass::Control:
            di.nCtrl += 1;
            break;
          case TemplateClass::Memory:
            di.nMem += 1;
            break;
          case TemplateClass::Transfer:
            di.nXfer += 1;
            break;
          case TemplateClass::Other:
            break;
        }
        bits_sum += t.bits;
    }
    double n = double(std::max<size_t>(1, std::size(r)));
    di.log2n = std::log2(1.0 + n);
    di.bitsOverN = bits_sum / n;
    di.lutsDenom = double(dev.alms * dev.lutsPerAlm);
    return di;
}

/** The one writer of the 11 ANN design features (Section IV-B2). */
void
designRowInto(const DesignInvariants& di, const Resources& raw,
              double* out)
{
    out[0] = std::log2(1.0 + raw.lutsPack);
    out[1] = std::log2(1.0 + raw.lutsNoPack);
    out[2] = std::log2(1.0 + raw.regs);
    out[3] = std::log2(1.0 + raw.dsps);
    out[4] = std::log2(1.0 + raw.brams);
    out[5] = di.log2n;
    out[6] = di.nCtrl;
    out[7] = di.nMem;
    out[8] = di.nXfer;
    out[9] = di.bitsOverN;
    out[10] = raw.totalLuts() / di.lutsDenom;
}

} // namespace

void
AreaEstimator::designFeaturesInto(const AreaModel& model,
                                  const fpga::Device& dev,
                                  const std::vector<TemplateInst>& ts,
                                  Resources raw,
                                  std::vector<double>& out)
{
    (void)model;
    out.resize(kDesignFeatures);
    designRowInto(invariantsOf(dev, ts, std::identity{}), raw,
                  out.data());
}

AreaEstimator::AreaEstimator(const fpga::VendorToolchain& tc,
                             int train_designs, uint64_t seed)
    : dev_(tc.device()), routeNet_({kDesignFeatures, 6, 1}, seed ^ 1),
      dupRegNet_({kDesignFeatures, 6, 1}, seed ^ 2),
      unavailNet_({kDesignFeatures, 6, 1}, seed ^ 3)
{
    // Step 1: characterize templates and fit the analytical models.
    model_.fit(characterizeTemplates(tc));

    // Step 2: train the post-P&R effect networks on random designs.
    auto samples = fpga::randomDesignSamples(tc, train_designs, seed);

    std::vector<std::vector<double>> feats;
    std::vector<std::vector<double>> targets; // route, dupReg, unavail
    std::vector<std::vector<double>> route_x; // for the BRAM-dup fit
    std::vector<double> bram_y;

    for (const auto& s : samples) {
        Resources raw = model_.rawCount(s.templates);
        if (raw.totalLuts() <= 0 || raw.regs <= 0)
            continue;
        feats.push_back(designFeatures(model_, dev_, s.templates, raw));
        targets.push_back({s.report.routeLuts / raw.totalLuts(),
                           s.report.dupRegs / raw.regs,
                           s.report.unavailLuts / raw.totalLuts()});
        route_x.push_back({s.report.routeLuts});
        bram_y.push_back(s.report.dupBrams / std::max(1.0, raw.brams));
    }
    require(feats.size() >= 10, "too few usable training designs");

    featScaler_.fit(feats);
    targetScaler_.fit(targets);
    std::vector<std::vector<double>> xs(feats.size());
    std::array<std::vector<std::vector<double>>, 3> ys;
    for (size_t i = 0; i < feats.size(); ++i) {
        xs[i] = featScaler_.transformed(feats[i]);
        for (int f = 0; f < 3; ++f)
            ys[size_t(f)].push_back(
                {targetScaler_.scaleColumn(size_t(f),
                                           targets[i][size_t(f)])});
    }

    ml::RpropTrainer(routeNet_).train(xs, ys[0], 600);
    ml::RpropTrainer(dupRegNet_).train(xs, ys[1], 600);
    ml::RpropTrainer(unavailNet_).train(xs, ys[2], 600);

    // Step 3: BRAM duplication as a linear function of the number of
    // routing LUTs, "fit using the same data used to train the neural
    // networks". The regressand is the duplication *fraction* so the
    // prediction scales with the design's own block RAM count.
    bramDup_.fit(route_x, bram_y);

    // Step 4: calibrate the packing rate: 1-D search for the rate
    // that minimizes mean relative ALM error on the training designs.
    double best_rate = 1.0, best_err = 1e300;
    for (double rate = 0.5; rate <= 1.001; rate += 0.01) {
        packRate_ = rate;
        double err = 0;
        int m = 0;
        for (const auto& s : samples) {
            if (s.report.alms < 1000)
                continue;
            auto e = estimateList(s.templates);
            err += std::fabs(e.alms - s.report.alms) / s.report.alms;
            ++m;
        }
        if (m > 0 && err / m < best_err) {
            best_err = err / m;
            best_rate = rate;
        }
    }
    packRate_ = best_rate;
}

AreaEstimator::AreaEstimator(fpga::Device dev, std::istream& is)
    : dev_(std::move(dev)), routeNet_({1, 1}), dupRegNet_({1, 1}),
      unavailNet_({1, 1})
{
    std::string tag, version;
    is >> tag >> version;
    require(bool(is) && tag == "area_estimator" && version == "v1",
            "bad calibration file header");
    model_ = AreaModel::load(is);
    routeNet_ = ml::loadMlp(is);
    dupRegNet_ = ml::loadMlp(is);
    unavailNet_ = ml::loadMlp(is);
    featScaler_ = ml::loadScaler(is);
    targetScaler_ = ml::loadScaler(is);
    bramDup_ = ml::loadLinear(is);
    auto rate = ml::readDoubles(is, "pack_rate");
    require(rate.size() == 1, "bad pack-rate record");
    packRate_ = rate.front();
}

void
AreaEstimator::save(std::ostream& os) const
{
    os << "area_estimator v1\n";
    model_.save(os);
    ml::saveMlp(os, routeNet_);
    ml::saveMlp(os, dupRegNet_);
    ml::saveMlp(os, unavailNet_);
    ml::saveScaler(os, featScaler_);
    ml::saveScaler(os, targetScaler_);
    ml::saveLinear(os, bramDup_);
    ml::writeDoubles(os, "pack_rate", {packRate_});
}

AreaEstimate
AreaEstimator::assemble(Resources raw, double route_frac,
                        double dup_reg_frac, double unavail_frac,
                        double pack_rate) const
{
    AreaEstimate e;
    e.raw = raw;
    e.routeLuts = std::max(0.0, route_frac) * raw.totalLuts();
    e.dupRegs = std::max(0.0, dup_reg_frac) * raw.regs;
    e.unavailLuts = std::max(0.0, unavail_frac) * raw.totalLuts();
    e.dupBrams =
        std::max(0.0, bramDup_.predict1(e.routeLuts)) * raw.brams;

    // LUT packing: routing LUTs are assumed packable; packable LUTs
    // pack pairwise (at the calibrated rate) into compute units with
    // two registers each.
    double packable = raw.lutsPack + e.routeLuts;
    double unpackable = raw.lutsNoPack + e.unavailLuts;
    double logic_units =
        unpackable + packable * (1.0 - pack_rate / 2.0);

    e.luts = raw.totalLuts() + e.routeLuts + e.unavailLuts;
    e.regs = raw.regs + e.dupRegs;
    // DSP counts are integral in reality; rounding (not ceiling) the
    // fitted estimate avoids a systematic +1 at small counts.
    e.dsps = std::round(raw.dsps);
    e.brams = std::ceil(raw.brams + e.dupBrams);

    double reg_units = std::max(
        0.0, (e.regs - double(dev_.regsPerAlm) * logic_units) /
                 double(dev_.regsPerAlm));
    e.alms = logic_units + reg_units;
    return e;
}

AreaEstimate
AreaEstimator::estimateList(const std::vector<TemplateInst>& ts,
                            AreaWorkspace& ws) const
{
    Resources raw;
    for (const auto& t : ts)
        raw += model_.cost(t, ws.feat);
    designFeaturesInto(model_, dev_, ts, raw, ws.designFeat);
    featScaler_.transformInto(ws.designFeat, ws.scaled);
    double route = targetScaler_.inverseColumn(
        0, routeNet_.predictScalar(ws.scaled, ws.mlp));
    double dup_reg = targetScaler_.inverseColumn(
        1, dupRegNet_.predictScalar(ws.scaled, ws.mlp));
    double unavail = targetScaler_.inverseColumn(
        2, unavailNet_.predictScalar(ws.scaled, ws.mlp));
    return assemble(raw, route, dup_reg, unavail, packRate_);
}

AreaEstimate
AreaEstimator::estimateList(const std::vector<TemplateInst>& ts) const
{
    AreaWorkspace ws;
    return estimateList(ts, ws);
}

namespace {

/** Points per SoA feature tile in estimateBatch. */
constexpr size_t kAreaTile = 64;

/** Feature-major tile: [feature][point]. */
using FeatureTile = double[AreaModel::kMaxFeatures][kAreaTile];
/** One bundle's weights: [lutsPack,lutsNoPack,regs,dsps,brams][feature]. */
using BundleWeights = double[5][AreaModel::kMaxFeatures];

/**
 * Fused max(0, w.f + b) accumulation of one slot's five resource
 * models across a whole SoA feature tile: f[q] holds feature q of bn
 * points. Looping points innermost turns every multiply-add into a
 * contiguous vectorizable sweep; per point, the partial sums still
 * start from the bias and add the weighted features in ascending q —
 * the identical order and rounding of the scalar LinearModel::predict
 * chain. NF is the slot's feature count, so the q loops unroll fully.
 */
template <size_t NF>
inline void
accumulateTile(const FeatureTile& f, size_t bn, const BundleWeights& w,
               const double (&b)[5], Resources* raw)
{
    double s[5][kAreaTile];
    for (size_t m = 0; m < 5; ++m) {
        const double bm = b[m];
        for (size_t p = 0; p < bn; ++p)
            s[m][p] = bm;
        for (size_t q = 0; q < NF; ++q) {
            const double wq = w[m][q];
            for (size_t p = 0; p < bn; ++p)
                s[m][p] += wq * f[q][p];
        }
    }
    for (size_t p = 0; p < bn; ++p) {
        Resources& r = raw[p];
        r.lutsPack += std::max(0.0, s[0][p]);
        r.lutsNoPack += std::max(0.0, s[1][p]);
        r.regs += std::max(0.0, s[2][p]);
        r.dsps += std::max(0.0, s[3][p]);
        r.brams += std::max(0.0, s[4][p]);
    }
}

/** accumulateTile() for a feature count known at run time. */
inline void
accumulateTile(size_t nf, const FeatureTile& f, size_t bn,
               const BundleWeights& w, const double (&b)[5],
               Resources* raw)
{
    static_assert(AreaModel::kMaxFeatures == 6);
    switch (nf) {
      case 1: return accumulateTile<1>(f, bn, w, b, raw);
      case 2: return accumulateTile<2>(f, bn, w, b, raw);
      case 3: return accumulateTile<3>(f, bn, w, b, raw);
      case 4: return accumulateTile<4>(f, bn, w, b, raw);
      case 5: return accumulateTile<5>(f, bn, w, b, raw);
      case 6: return accumulateTile<6>(f, bn, w, b, raw);
    }
    invariant(false, "feature count out of range");
}

/**
 * One point's accumulateTile() terms, read from column p of the
 * tile, for a slot whose weight bundle varies per point.
 */
inline void
accumulatePoint(const FeatureTile& f, size_t p, size_t nf,
                const BundleWeights& w, const double (&b)[5],
                Resources& r)
{
    double s0 = b[0], s1 = b[1], s2 = b[2], s3 = b[3], s4 = b[4];
    for (size_t q = 0; q < nf; ++q) {
        const double fq = f[q][p];
        s0 += w[0][q] * fq;
        s1 += w[1][q] * fq;
        s2 += w[2][q] * fq;
        s3 += w[3][q] * fq;
        s4 += w[4][q] * fq;
    }
    r.lutsPack += std::max(0.0, s0);
    r.lutsNoPack += std::max(0.0, s1);
    r.regs += std::max(0.0, s2);
    r.dsps += std::max(0.0, s3);
    r.brams += std::max(0.0, s4);
}

/**
 * Cost one template slot across insts[0..n). Per tile of kAreaTile
 * points: patch the slot's template for each point, write its
 * features into the feature-major tile, then sweep the dot across the
 * tile. K and P are the slot's base kind and patch as compile-time
 * constants, so the patch and feature switches fold out of the
 * per-point loop. The patch never changes a slot's feature layout: a
 * CtrlSeqOrMeta slot only toggles between SeqCtrl and MetaPipeCtrl,
 * which share one, and picks that kind's weight bundle per point.
 */
template <TemplateKind K, SlotPatch P>
void
costSlot(const AreaBatchPlan::SlotKernel& k, const InstPool& insts,
         size_t n, Resources* raw)
{
    const TemplateSlot& s = *k.slot;
    TemplateInst t = s.base; // every patch rewrites the same fields
    double f[AreaModel::kMaxFeatures];
    FeatureTile ft;
    bool meta[kAreaTile];
    for (size_t lo = 0; lo < n; lo += kAreaTile) {
        const size_t bn = std::min(kAreaTile, n - lo);
        for (size_t p = 0; p < bn; ++p) {
            patchTemplateFields(P, s, insts[lo + p], t);
            const size_t nf = AreaModel::featuresOf(K, t, f);
            for (size_t q = 0; q < nf; ++q)
                ft[q][p] = f[q];
            meta[p] = t.tkind == TemplateKind::MetaPipeCtrl;
        }
        if (!k.dual) {
            accumulateTile(k.nf, ft, bn, k.w[0], k.b[0], raw + lo);
            continue;
        }
        for (size_t p = 0; p < bn; ++p)
            accumulatePoint(ft, p, k.nf, k.w[meta[p]], k.b[meta[p]],
                            raw[lo + p]);
    }
}

using SlotCostFn = void (*)(const AreaBatchPlan::SlotKernel&,
                            const InstPool&, size_t, Resources*);

template <size_t... I>
constexpr std::array<SlotCostFn, sizeof...(I)>
slotCostTable(std::index_sequence<I...>)
{
    return {&costSlot<TemplateKind(I / kNumSlotPatches),
                      SlotPatch(I % kNumSlotPatches)>...};
}

/** costSlot<K, P> for every (kind, patch), at K * kNumSlotPatches + P. */
constexpr auto kSlotCost = slotCostTable(
    std::make_index_sequence<kNumTemplateKinds * kNumSlotPatches>());

} // namespace

AreaBatchPlan
AreaEstimator::makeBatchPlan(const DesignPlan& plan) const
{
    AreaBatchPlan bp;
    bp.plan_ = &plan;
    const auto& slots = plan.templateSlots();
    bp.kernels_.resize(slots.size());
    bp.ok_ = true;

    for (size_t i = 0; i < slots.size(); ++i) {
        const TemplateSlot& s = slots[i];
        auto& k = bp.kernels_[i];
        k.slot = &s;
        k.dual = s.patch == SlotPatch::CtrlSeqOrMeta;

        TemplateInst probe = s.base;
        if (k.dual)
            probe.tkind = TemplateKind::SeqCtrl;
        double buf[AreaModel::kMaxFeatures];
        k.nf = uint32_t(AreaModel::featuresInto(probe, buf));

        for (int v = 0; v < (k.dual ? 2 : 1); ++v) {
            if (v == 1)
                probe.tkind = TemplateKind::MetaPipeCtrl;
            const auto* ms = model_.tryModelsFor(probe);
            if (ms == nullptr) {
                bp.ok_ = false;
                continue;
            }
            for (int m = 0; m < 5; ++m) {
                const auto& ws = (*ms)[size_t(m)].weights();
                if (ws.size() != k.nf) {
                    bp.ok_ = false;
                    continue;
                }
                for (size_t q = 0; q < ws.size(); ++q)
                    k.w[v][m][q] = ws[q];
                k.b[v][m] = (*ms)[size_t(m)].bias();
            }
        }
    }

    // Patching changes no slot's kind class or bit width, so the
    // invariant features over the bases equal the scalar path's
    // per-point ones bit for bit.
    bp.design_ = invariantsOf(
        dev_, slots,
        [](const TemplateSlot& s) -> const TemplateInst& {
            return s.base;
        });
    return bp;
}

void
AreaEstimator::estimateBatch(const AreaBatchPlan& bp,
                             const InstPool& insts, size_t n,
                             AreaBatchWorkspace& ws,
                             AreaEstimate* out) const
{
    invariant(bp.ok_, "estimateBatch on a failed batch plan");
    ws.raw.assign(n, Resources{});

    // Slot-outer raw counting: per field, each point accumulates one
    // max(0, dot) term per slot in slot order — the scalar path's
    // exact chain, just interleaved across the batch.
    for (const auto& k : bp.kernels_) {
        const TemplateSlot& s = *k.slot;
        kSlotCost[size_t(s.base.tkind) * kNumSlotPatches +
                  size_t(s.patch)](k, insts, n, ws.raw.data());
    }

    // Batched ANN tail: design-feature rows, scaling, the three
    // effect networks, then per-point assembly.
    ws.designFeat.resize(n * kDesignFeatures);
    ws.scaled.resize(n * kDesignFeatures);
    ws.route.resize(n);
    ws.dupReg.resize(n);
    ws.unavail.resize(n);
    for (size_t p = 0; p < n; ++p)
        designRowInto(bp.design_, ws.raw[p],
                      &ws.designFeat[p * kDesignFeatures]);
    featScaler_.transformBatch(ws.designFeat.data(), n,
                               ws.scaled.data());
    routeNet_.forwardBatch(ws.scaled.data(), n, ws.route.data(),
                           ws.mlp);
    dupRegNet_.forwardBatch(ws.scaled.data(), n, ws.dupReg.data(),
                            ws.mlp);
    unavailNet_.forwardBatch(ws.scaled.data(), n, ws.unavail.data(),
                             ws.mlp);
    for (size_t p = 0; p < n; ++p)
        out[p] = assemble(ws.raw[p],
                          targetScaler_.inverseColumn(0, ws.route[p]),
                          targetScaler_.inverseColumn(1, ws.dupReg[p]),
                          targetScaler_.inverseColumn(2, ws.unavail[p]),
                          packRate_);
}

AreaEstimate
AreaEstimator::estimate(const Inst& inst) const
{
    AreaWorkspace ws;
    return estimate(inst, ws);
}

AreaEstimate
AreaEstimator::estimate(const Inst& inst, AreaWorkspace& ws) const
{
    expandTemplates(inst, ws.templates);
    return estimateList(ws.templates, ws);
}

AreaEstimate
AreaEstimator::estimateAnalyticOnly(
    const std::vector<TemplateInst>& ts) const
{
    // Average correction factors straight from Section IV-A prose
    // (~10% routing, ~5% duplicated registers, ~4% unavailable), with
    // the BRAM-dup linear model replaced by its training-mean slope.
    // The paper's literal packing assumption ("all packable LUTs will
    // be packed") without the calibration step.
    Resources raw = model_.rawCount(ts);
    return assemble(raw, 0.10, 0.05, 0.04, 1.0);
}

const fpga::VendorToolchain&
defaultToolchain()
{
    static fpga::VendorToolchain tc;
    return tc;
}

const AreaEstimator&
calibratedEstimator()
{
    static AreaEstimator est(defaultToolchain());
    return est;
}

} // namespace dhdl::est
