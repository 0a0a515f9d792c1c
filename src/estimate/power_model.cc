#include "estimate/power_model.hh"

#include <algorithm>

#include "estimate/area_estimator.hh"
#include "fpga/silicon.hh"

namespace dhdl::est {

PowerEstimator::PowerEstimator(const fpga::VendorToolchain& tc,
                               int train_designs, uint64_t seed)
{
    // Per-class template power models on the characterization sweep.
    auto samples = characterizeTemplates(tc);
    std::unordered_map<uint64_t,
                       std::pair<std::vector<std::vector<double>>,
                                 std::vector<double>>>
        groups;
    for (const auto& s : samples) {
        auto& g = groups[AreaModel::classKey(s.inst)];
        g.first.push_back(AreaModel::features(s.inst));
        g.second.push_back(s.powerMw);
    }
    for (auto& [key, g] : groups)
        models_[key].fit(g.first, g.second, 1e-6);

    // Design-level correction: clock tree + static leakage + bias,
    // fit against whole-design power reports.
    auto designs = fpga::randomDesignSamples(tc, train_designs, seed);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    // The LUT feature uses the shared calibrated area model so the
    // fit-time and predict-time inputs come from the same estimator.
    const AreaModel& area = calibratedEstimator().model();
    for (const auto& d : designs) {
        double dyn = 0;
        for (const auto& t : d.templates)
            dyn += templateMw(t);
        Resources raw = area.rawCount(d.templates);
        x.push_back({dyn, raw.totalLuts()});
        y.push_back(d.report.powerMw);
    }
    designLevel_.fit(x, y);
}

double
PowerEstimator::templateMw(const TemplateInst& t) const
{
    auto it = models_.find(AreaModel::classKey(t));
    if (it == models_.end()) {
        TemplateInst d = t;
        d.op = Op::Add;
        d.isFloat = false;
        it = models_.find(AreaModel::classKey(d));
        require(it != models_.end(),
                "uncharacterized template class for power");
    }
    return std::max(0.0, it->second.predict(AreaModel::features(t)));
}

double
PowerEstimator::estimateListMw(
    const std::vector<TemplateInst>& ts) const
{
    double dyn = 0;
    for (const auto& t : ts)
        dyn += templateMw(t);
    // The raw-LUT proxy for the clock-tree term comes from the
    // calibrated area model of the shared estimator.
    Resources raw = calibratedEstimator().model().rawCount(ts);
    return std::max(0.0,
                    designLevel_.predict({dyn, raw.totalLuts()}));
}

double
PowerEstimator::estimateMw(const Inst& inst) const
{
    return estimateListMw(expandTemplates(inst));
}

const PowerEstimator&
calibratedPowerEstimator()
{
    static PowerEstimator est(defaultToolchain());
    return est;
}

} // namespace dhdl::est
