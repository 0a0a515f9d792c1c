#include "dse/explorer.hh"

#include <algorithm>

namespace dhdl::dse {

const char*
strategyName(StrategyKind k)
{
    switch (k) {
    case StrategyKind::Surrogate:
        return "surrogate";
    case StrategyKind::Random:
        break;
    }
    return "random";
}

Status
parseStrategy(std::string_view name, StrategyKind& out)
{
    for (StrategyKind k : {StrategyKind::Random, StrategyKind::Surrogate})
        if (name == strategyName(k)) {
            out = k;
            return Status();
        }
    return Status::error(DiagCode::UserError, "config",
                         "unknown strategy \"" + std::string(name) +
                             "\" (random|surrogate)");
}

std::vector<ParamBinding>
sampleGlobal(const ParamSpace& space, const ExploreConfig& cfg,
             DiagSink* sink)
{
    // Small pruned spaces are walked exhaustively; larger ones are
    // randomly sampled (the paper samples up to 75,000 legal points).
    // Either path is deterministic per seed, which checkpoint/resume
    // and the thread-count invariance both rely on.
    return space.sizeEstimate() <= double(cfg.maxPoints)
               ? space.enumerate(cfg.maxPoints)
               : space.sample(cfg.maxPoints, cfg.seed, sink);
}

void
sortDiags(std::vector<Diag>& diags)
{
    std::sort(diags.begin(), diags.end(),
              [](const Diag& a, const Diag& b) {
                  if (a.pointIndex != b.pointIndex)
                      return a.pointIndex < b.pointIndex;
                  if (a.stage != b.stage)
                      return a.stage < b.stage;
                  return a.message < b.message;
              });
}

std::vector<size_t>
paretoOf(const std::vector<DesignPoint>& points)
{
    std::vector<size_t> valid;
    std::vector<double> xs, ys;
    for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].valid) {
            valid.push_back(i);
            xs.push_back(points[i].area.alms);
            ys.push_back(double(points[i].cycles));
        }
    }
    std::vector<size_t> out = paretoFront(xs, ys);
    for (size_t& i : out)
        i = valid[i];
    return out;
}

std::optional<size_t>
ExploreResult::bestIndex() const
{
    std::optional<size_t> best;
    for (size_t i = 0; i < points.size(); ++i) {
        if (!points[i].valid)
            continue;
        if (!best || points[i].cycles < points[*best].cycles)
            best = i;
    }
    return best;
}

std::vector<std::pair<std::string, size_t>>
ExploreResult::failureSummary(size_t top) const
{
    return topReasons(diags, top);
}

DesignPoint
Explorer::evaluate(const Graph& g, ParamBinding b) const
{
    Evaluator ev(area_, runtime_, g);
    return ev.evaluate(std::move(b));
}

Status
Explorer::evaluateGuarded(const Graph& g, DesignPoint& p) const
{
    Evaluator ev(area_, runtime_, g);
    return ev.evaluatePoint(p, 0, nullptr);
}

} // namespace dhdl::dse
