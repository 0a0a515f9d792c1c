#include "core/passes.hh"

#include "core/validate.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl {

Status
PassManager::run(const Graph& g, PassContext& ctx)
{
    executed_.clear();
    executed_.reserve(passes_.size());
    for (const Entry& e : passes_) {
        executed_.push_back(e.name);
        const uint64_t t0 = obs::nowMicros();
        Status st;
        try {
            st = e.fn(g, ctx);
        } catch (...) {
            Diag d = diagFromCurrentException(e.name);
            st = Status::error(d);
        }
        const uint64_t dur = obs::nowMicros() - t0;
        obs::recordSpan("pass", e.name.c_str(), t0, dur);
        obs::addCounter("pass." + e.name + ".us", dur);
        obs::addCounter("pass." + e.name + ".runs", 1);
        if (!st.ok()) {
            ctx.sink().report(st.diag());
            return st;
        }
    }
    return Status();
}

PassManager
standardPasses()
{
    PassManager pm;
    pm.add("validate", [](const Graph& g, PassContext& ctx) {
        ctx.art.validationErrors = validate(g);
        if (ctx.art.validationErrors.empty())
            return Status();
        const auto& errs = ctx.art.validationErrors;
        std::string msg = errs.front();
        if (errs.size() > 1)
            msg += " (+" + std::to_string(errs.size() - 1) + " more)";
        return Status::error(DiagCode::UserError, "validate", msg);
    });
    pm.add("stats", [](const Graph& g, PassContext& ctx) {
        ctx.art.stats = computeStats(g);
        return Status();
    });
    return pm;
}

} // namespace dhdl
