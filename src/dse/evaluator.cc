#include "dse/evaluator.hh"

#include <chrono>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl::dse {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Record one pass through the four stages, timed by t[0..4]: a span
 * per stage tagged with `arg`, and the same microseconds added to
 * the stage's `dse.stage.<stage>.us` counter, so spans and counters
 * read one clock. Purely additive — no effect on any point, so golden
 * outputs do not depend on it. Returns the whole pass in µs.
 */
uint64_t
recordStages(const Clock::time_point (&t)[5], int64_t arg)
{
    static const char* const kStage[4] = {"instantiate", "area",
                                          "runtime", "validate"};
    static const obs::Counter kStageUs[4] = {
        obs::Counter("dse.stage.instantiate.us"),
        obs::Counter("dse.stage.area.us"),
        obs::Counter("dse.stage.runtime.us"),
        obs::Counter("dse.stage.validate.us"),
    };
    uint64_t u[5];
    for (int s = 0; s < 5; ++s)
        u[s] = obs::toMicros(t[s]);
    for (int s = 0; s < 4; ++s) {
        obs::recordSpan("dse", kStage[s], u[s], u[s + 1] - u[s], arg);
        kStageUs[s].add(u[s + 1] - u[s]);
    }
    return u[4] - u[0];
}

} // namespace

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
    static const obs::Counter cPlanUs("dse.plan.compile.us");
    const uint64_t t0 = obs::nowMicros();
    std::shared_ptr<const DesignPlan> plan;
    try {
        plan = std::make_shared<const DesignPlan>(g);
    } catch (...) {
        // Null plan: each point then reports the graph's error.
    }
    // The span and the counter read one duration, as recordStages'
    // stage spans and counters do.
    const uint64_t us = obs::nowMicros() - t0;
    obs::recordSpan("dse", "plan-compile", t0, us);
    cPlanUs.add(us);
    return plan;
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
    if (hook && *hook) {
        stage = "pre-evaluate";
        (*hook)(p.binding, idx);
    }

    stage = "instantiate";
    Clock::time_point t[5];
    t[0] = Clock::now();
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
    t[1] = Clock::now();
    p.area = area_.estimate(*inst_, ws_);

    stage = "runtime";
    t[2] = Clock::now();
    p.cycles = runtime_.estimate(*inst_).cycles;

    stage = "validate";
    t[3] = Clock::now();
    p.valid = p.area.fits(area_.device());
    p.evaluated = true;
    t[4] = Clock::now();

    static const obs::Histogram pointLatency(
        "dse.eval.point.us",
        {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384});
    pointLatency.observe(recordStages(t, int64_t(idx)));
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

    // Stage 1 — hook + instantiate: rebind one pool row per point.
    // Failing points are marked and excluded; survivors pack densely
    // into rows [0, live), remembering their point index.
    Clock::time_point t[5];
    t[0] = Clock::now();
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
    t[1] = Clock::now();
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
    t[2] = Clock::now();
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
    t[3] = Clock::now();
    for (size_t r = 0; r < live; ++r) {
        if (rowFailed_[r])
            continue;
        DesignPoint& p = points[liveIdx_[r]];
        p.valid = p.area.fits(area_.device());
        p.evaluated = true;
    }
    t[4] = Clock::now();

    // One span per stage per batch (tagged with the batch's first
    // point) instead of per point: the trace stays readable at
    // batched throughput and the clock reads amortize over the batch.
    static const obs::Histogram batchLatency(
        "dse.eval.batch.us",
        {4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536});
    batchLatency.observe(recordStages(t, int64_t(idxs[0])));
}

} // namespace dhdl::dse
