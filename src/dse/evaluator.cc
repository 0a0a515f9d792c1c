#include "dse/evaluator.hh"

#include <chrono>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl::dse {

std::string
renderBinding(const Graph& g, const ParamBinding& b)
{
    std::ostringstream os;
    for (size_t i = 0; i < b.values.size(); ++i) {
        if (i)
            os << " ";
        if (i < g.params().size())
            os << g.params()[ParamId(i)].name << "=";
        os << b.values[i];
    }
    return os.str();
}

std::shared_ptr<const DesignPlan>
Evaluator::tryCompile(const Graph& g) noexcept
{
    try {
        return std::make_shared<const DesignPlan>(g);
    } catch (...) {
        return nullptr;
    }
}

Evaluator::Evaluator(const est::AreaEstimator& area,
                     const est::RuntimeEstimator& runtime,
                     const Graph& g)
    : Evaluator(area, runtime, g, tryCompile(g))
{
}

Evaluator::Evaluator(const est::AreaEstimator& area,
                     const est::RuntimeEstimator& runtime,
                     const Graph& g,
                     std::shared_ptr<const DesignPlan> plan)
    : area_(area), runtime_(runtime), g_(&g), plan_(std::move(plan))
{
}

void
Evaluator::run(DesignPoint& p, size_t idx, const Hook* hook,
               const char*& stage)
{
    using Clock = std::chrono::steady_clock;
    auto secs = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };

    if (hook && *hook) {
        stage = "pre-evaluate";
        (*hook)(p.binding, idx);
    }

    stage = "instantiate";
    const auto t0 = Clock::now();
    if (plan_) {
        if (inst_)
            inst_->rebind(p.binding);
        else
            inst_.emplace(*plan_, p.binding);
    } else {
        // The graph failed to compile: reproduce the error per point
        // so it lands on each point's diagnostic, as one-off
        // instantiation always did.
        inst_.emplace(*g_, p.binding);
    }

    stage = "area";
    const auto t1 = Clock::now();
    p.area = area_.estimate(*inst_, ws_);

    stage = "runtime";
    const auto t2 = Clock::now();
    p.cycles = runtime_.estimate(*inst_).cycles;

    stage = "validate";
    const auto t3 = Clock::now();
    p.valid = p.area.fits(area_.device());
    p.evaluated = true;
    const auto t4 = Clock::now();

    times_.instantiate += secs(t0, t1);
    times_.area += secs(t1, t2);
    times_.runtime += secs(t2, t3);
    times_.validate += secs(t3, t4);
    times_.points += 1;

    // Tracing rides the clock reads StageTimes already pays for: one
    // complete span per stage, tagged with the point index, plus the
    // whole-point latency histogram. Purely additive — no effect on
    // p, so golden outputs are identical with tracing on or off.
    if (obs::enabled()) {
        static const obs::Histogram pointLatency(
            "dse.eval.point.us",
            {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
             16384});
        const uint64_t u0 = obs::toMicros(t0);
        const uint64_t u1 = obs::toMicros(t1);
        const uint64_t u2 = obs::toMicros(t2);
        const uint64_t u3 = obs::toMicros(t3);
        const uint64_t u4 = obs::toMicros(t4);
        const int64_t i = int64_t(idx);
        obs::recordSpan("dse", "instantiate", u0, u1 - u0, i);
        obs::recordSpan("dse", "area", u1, u2 - u1, i);
        obs::recordSpan("dse", "runtime", u2, u3 - u2, i);
        obs::recordSpan("dse", "validate", u3, u4 - u3, i);
        pointLatency.observe(u4 - u0);
    }
}

DesignPoint
Evaluator::evaluate(ParamBinding b)
{
    DesignPoint p;
    p.binding = std::move(b);
    const char* stage = "instantiate";
    run(p, 0, nullptr, stage);
    return p;
}

Status
Evaluator::evaluatePoint(DesignPoint& p, size_t idx, const Hook* hook)
{
    const char* stage = "instantiate";
    try {
        run(p, idx, hook, stage);
        return Status();
    } catch (...) {
        return Status::error(failPoint(p, idx, stage));
    }
}

Diag
Evaluator::failPoint(DesignPoint& p, size_t idx, const char* stage)
{
    Diag d = diagFromCurrentException(stage);
    d.pointIndex = int64_t(idx);
    d.context = renderBinding(*g_, p.binding);
    d.worker = obs::threadName();
    p.evaluated = true;
    p.failed = true;
    p.valid = false;
    p.failCode = d.code;
    p.failStage = stage;
    p.failReason = d.message;
    return d;
}

bool
Evaluator::ensureBatchPlan()
{
    if (!batchPlanTried_) {
        batchPlanTried_ = true;
        if (plan_)
            batchPlan_ = area_.makeBatchPlan(*plan_);
    }
    return batchPlan_.ok();
}

void
Evaluator::evaluateBatch(std::vector<DesignPoint>& points,
                         const size_t* idxs, size_t n, const Hook* hook,
                         DiagSink& sink)
{
    if (n == 0)
        return;

    // A null plan (broken graph) or an uncharacterized template class
    // must surface per point with the scalar path's exact diagnostics,
    // so those designs never enter the batch kernels at all.
    if (!ensureBatchPlan()) {
        for (size_t k = 0; k < n; ++k) {
            Status s = evaluatePoint(points[idxs[k]], idxs[k], hook);
            if (!s.ok())
                sink.report(s.diag());
        }
        return;
    }

    using Clock = std::chrono::steady_clock;
    auto secs = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };

    // Stage 1 — hook + instantiate: rebind one pool row per point.
    // Failing points are marked and excluded; survivors pack densely
    // into rows [0, live), remembering their point index.
    const auto t0 = Clock::now();
    liveIdx_.clear();
    for (size_t k = 0; k < n; ++k) {
        const size_t idx = idxs[k];
        DesignPoint& p = points[idx];
        const char* stage = "instantiate";
        try {
            if (hook && *hook) {
                stage = "pre-evaluate";
                (*hook)(p.binding, idx);
            }
            stage = "instantiate";
            pool_.assign(liveIdx_.size(), *plan_, p.binding);
            liveIdx_.push_back(idx);
        } catch (...) {
            sink.report(failPoint(p, idx, stage));
        }
    }
    const size_t live = liveIdx_.size();

    // Stage 2 — area: the fused slot-outer kernel over the whole
    // batch. The kernel is straight-line arithmetic; anything it
    // could throw (a broken plan invariant) is re-run through the
    // scalar pipeline so each point reports it the scalar way. The
    // hook already ran, so the fallback skips it.
    const auto t1 = Clock::now();
    try {
        areaOut_.resize(live);
        area_.estimateBatch(batchPlan_, pool_, live, bws_,
                            areaOut_.data());
    } catch (...) {
        for (size_t r = 0; r < live; ++r) {
            Status s =
                evaluatePoint(points[liveIdx_[r]], liveIdx_[r], nullptr);
            if (!s.ok())
                sink.report(s.diag());
        }
        return;
    }
    for (size_t r = 0; r < live; ++r)
        points[liveIdx_[r]].area = areaOut_[r];

    // Stage 3 — runtime: the cycle model recurses over the controller
    // hierarchy, so points run one at a time inside the batch clock;
    // a throwing point fails exactly like the scalar path (keeping
    // the area estimate it already earned) and drops from validate.
    const auto t2 = Clock::now();
    rowFailed_.assign(live, 0);
    for (size_t r = 0; r < live; ++r) {
        DesignPoint& p = points[liveIdx_[r]];
        try {
            p.cycles = runtime_.estimate(pool_[r]).cycles;
        } catch (...) {
            sink.report(failPoint(p, liveIdx_[r], "runtime"));
            rowFailed_[r] = 1;
        }
    }

    // Stage 4 — validate: pure comparisons across the batch.
    const auto t3 = Clock::now();
    uint64_t completed = 0;
    for (size_t r = 0; r < live; ++r) {
        if (rowFailed_[r])
            continue;
        DesignPoint& p = points[liveIdx_[r]];
        p.valid = p.area.fits(area_.device());
        p.evaluated = true;
        ++completed;
    }
    const auto t4 = Clock::now();

    times_.instantiate += secs(t0, t1);
    times_.area += secs(t1, t2);
    times_.runtime += secs(t2, t3);
    times_.validate += secs(t3, t4);
    times_.points += completed;

    // One span per stage per batch (tagged with the batch's first
    // point) instead of per point: the trace stays readable at
    // batched throughput and the clock reads amortize over the batch.
    if (obs::enabled()) {
        static const obs::Histogram batchLatency(
            "dse.eval.batch.us",
            {4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
             65536});
        const uint64_t u0 = obs::toMicros(t0);
        const uint64_t u1 = obs::toMicros(t1);
        const uint64_t u2 = obs::toMicros(t2);
        const uint64_t u3 = obs::toMicros(t3);
        const uint64_t u4 = obs::toMicros(t4);
        const int64_t i = int64_t(idxs[0]);
        obs::recordSpan("dse", "instantiate", u0, u1 - u0, i);
        obs::recordSpan("dse", "area", u1, u2 - u1, i);
        obs::recordSpan("dse", "runtime", u2, u3 - u2, i);
        obs::recordSpan("dse", "validate", u3, u4 - u3, i);
        batchLatency.observe(u4 - u0);
    }
}

} // namespace dhdl::dse
