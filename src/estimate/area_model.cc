#include "estimate/area_model.hh"

#include "ml/serialize.hh"

namespace dhdl::est {

uint64_t
AreaModel::classKey(const TemplateInst& t)
{
    uint64_t k = uint64_t(t.tkind) << 16;
    if (t.tkind == TemplateKind::PrimOp ||
        t.tkind == TemplateKind::ReduceTree) {
        k |= uint64_t(t.op) << 1;
        k |= uint64_t(t.isFloat);
    }
    return k;
}

void
AreaModel::featuresInto(const TemplateInst& t, std::vector<double>& out)
{
    // Range-assign from warm capacity allocates nothing per template;
    // featuresOf() holds the one copy of the feature expressions.
    double buf[kMaxFeatures];
    size_t n = featuresInto(t, buf);
    out.assign(buf, buf + n);
}

std::vector<double>
AreaModel::features(const TemplateInst& t)
{
    std::vector<double> out;
    featuresInto(t, out);
    return out;
}

void
AreaModel::fit(const std::vector<fpga::TemplateSample>& samples)
{
    require(!samples.empty(), "no characterization samples");
    // Group samples per class.
    std::unordered_map<uint64_t, std::vector<const fpga::TemplateSample*>>
        groups;
    for (const auto& s : samples)
        groups[classKey(s.inst)].push_back(&s);

    models_.clear();
    for (auto& [key, group] : groups) {
        std::vector<std::vector<double>> x;
        std::array<std::vector<double>, 5> y;
        for (const auto* s : group) {
            x.push_back(features(s->inst));
            y[0].push_back(s->observed.lutsPack);
            y[1].push_back(s->observed.lutsNoPack);
            y[2].push_back(s->observed.regs);
            y[3].push_back(s->observed.dsps);
            y[4].push_back(s->observed.brams);
        }
        auto& ms = models_[key];
        for (int i = 0; i < 5; ++i)
            ms[size_t(i)].fit(x, y[size_t(i)], 1e-6);
    }
    resolve();
}

void
AreaModel::resolve()
{
    for (auto& r : resolved_)
        r.present = false;
    // Kinds other than PrimOp/ReduceTree ignore op/isFloat in their
    // class key, so each resolves to exactly one bundle.
    for (size_t k = 0; k < kNumTemplateKinds; ++k) {
        auto kind = TemplateKind(k);
        if (kind == TemplateKind::PrimOp ||
            kind == TemplateKind::ReduceTree)
            continue;
        auto it = models_.find(uint64_t(k) << 16);
        if (it == models_.end())
            continue;
        resolved_[k].present = true;
        resolved_[k].models = it->second;
    }
}

const std::array<ml::LinearModel, 5>*
AreaModel::tryModelsFor(const TemplateInst& t) const noexcept
{
    const auto& fast = resolved_[size_t(t.tkind)];
    if (fast.present)
        return &fast.models;
    auto it = models_.find(classKey(t));
    if (it == models_.end()) {
        // Fall back to the kind-wide default class (op Add, fixed).
        TemplateInst d = t;
        d.op = Op::Add;
        d.isFloat = false;
        it = models_.find(classKey(d));
        if (it == models_.end())
            return nullptr;
    }
    return &it->second;
}

const std::array<ml::LinearModel, 5>&
AreaModel::modelsFor(const TemplateInst& t) const
{
    const auto* ms = tryModelsFor(t);
    require(ms != nullptr,
            std::string("uncharacterized template class: ") +
                templateKindName(t.tkind));
    return *ms;
}

Resources
AreaModel::cost(const TemplateInst& t, std::vector<double>& feat) const
{
    const auto& ms = modelsFor(t);
    featuresInto(t, feat);
    Resources r;
    r.lutsPack = std::max(0.0, ms[0].predict(feat));
    r.lutsNoPack = std::max(0.0, ms[1].predict(feat));
    r.regs = std::max(0.0, ms[2].predict(feat));
    r.dsps = std::max(0.0, ms[3].predict(feat));
    r.brams = std::max(0.0, ms[4].predict(feat));
    return r;
}

Resources
AreaModel::cost(const TemplateInst& t) const
{
    std::vector<double> feat;
    return cost(t, feat);
}

Resources
AreaModel::rawCount(const std::vector<TemplateInst>& ts) const
{
    Resources total;
    std::vector<double> feat;
    for (const auto& t : ts)
        total += cost(t, feat);
    return total;
}

void
AreaModel::save(std::ostream& os) const
{
    // Key order, not hash order: re-saving a loaded model must
    // reproduce the file byte for byte.
    std::vector<uint64_t> keys;
    keys.reserve(models_.size());
    for (const auto& kv : models_)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    os << "area_model " << models_.size() << " v1\n";
    for (uint64_t key : keys) {
        os << "class " << key << "\n";
        for (const auto& m : models_.at(key))
            ml::saveLinear(os, m);
    }
}

AreaModel
AreaModel::load(std::istream& is)
{
    std::string tag, version;
    size_t count = 0;
    is >> tag >> count >> version;
    require(bool(is) && tag == "area_model" && version == "v1",
            "bad area-model file header");
    AreaModel model;
    for (size_t i = 0; i < count; ++i) {
        std::string ctag;
        uint64_t key = 0;
        is >> ctag >> key;
        require(bool(is) && ctag == "class",
                "bad area-model class record");
        auto& ms = model.models_[key];
        for (auto& m : ms)
            m = ml::loadLinear(is);
    }
    model.resolve();
    return model;
}

} // namespace dhdl::est
