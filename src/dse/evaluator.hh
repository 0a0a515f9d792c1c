/**
 * @file
 * Staged design-point evaluation. The Evaluator owns everything one
 * evaluating thread needs to score bindings of a single graph:
 *
 *  - the shared, compile-once DesignPlan (binding-invariant analysis);
 *  - a reusable Inst overlay, rebound per point without reallocation;
 *  - the estimator scratch workspace (template list, feature vector).
 *
 * Evaluation runs as a fixed pipeline — pre-evaluate hook →
 * instantiate → area → runtime → validate — timed by one clock:
 * each stage's microseconds go to its trace span and to the
 * `dse.stage.<stage>.us` counter (`dhdlc explore --profile`). The
 * guarded entry point converts any stage exception into a structured
 * diagnostic naming the stage, exactly as the explorer's isolation
 * boundary always has.
 *
 * When plan compilation itself fails (a structurally broken graph),
 * the Evaluator keeps a null plan and falls back to one-off
 * instantiation per point, so the error is reported per point inside
 * the isolation boundary instead of aborting the sweep.
 */

#ifndef DHDL_DSE_EVALUATOR_HH
#define DHDL_DSE_EVALUATOR_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "analysis/instance.hh"
#include "core/diag.hh"
#include "estimate/area_estimator.hh"
#include "estimate/runtime_estimator.hh"

namespace dhdl::dse {

/** One evaluated design point. */
struct DesignPoint {
    ParamBinding binding;
    est::AreaEstimate area;
    double cycles = 0;
    bool valid = false; //!< Fits every device resource capacity.
    /** The point went through evaluation (false = budget-skipped). */
    bool evaluated = false;
    /** Search round that evaluated the point (-1 = unknown, e.g.
     *  restored from a strategy-less checkpoint). Serialized only by
     *  non-random strategies, so historical checkpoints stay
     *  byte-identical. */
    int32_t round = -1;
    /** Evaluation threw; failCode/failStage/failReason say why. */
    bool failed = false;
    DiagCode failCode = DiagCode::Ok;
    /** Pipeline stage that threw ("area", ...); empty when !failed.
     *  Persisted in checkpoints so a restored failure re-surfaces
     *  the identical diagnostic a live run would have produced. */
    std::string failStage;
    std::string failReason;
};

/** Render a binding as "name=value ..." for diagnostic context. */
std::string renderBinding(const Graph& g, const ParamBinding& b);

/**
 * Per-thread staged evaluation pipeline over one graph. Not
 * thread-safe: parallel sweeps construct one Evaluator per worker,
 * all sharing the same compiled plan.
 */
class Evaluator
{
  public:
    using Hook = std::function<void(const ParamBinding&, size_t)>;

    /** Compile the graph's plan inline (null on a broken graph). */
    Evaluator(const est::AreaEstimator& area,
              const est::RuntimeEstimator& runtime, const Graph& g);

    /** Share a pre-compiled plan (may be null: per-point fallback). */
    Evaluator(const est::AreaEstimator& area,
              const est::RuntimeEstimator& runtime, const Graph& g,
              std::shared_ptr<const DesignPlan> plan);

    /**
     * Compile a graph's plan; null (never throws) on failure. The one
     * place a plan compile is timed: it records the `dse/plan-compile`
     * span and adds the same microseconds to `dse.plan.compile.us`.
     */
    static std::shared_ptr<const DesignPlan>
    tryCompile(const Graph& g) noexcept;

    /** The shared plan; null when the graph failed to compile. */
    const std::shared_ptr<const DesignPlan>&
    plan() const
    {
        return plan_;
    }

    /** Evaluate one binding; throws on a bad point. */
    DesignPoint evaluate(ParamBinding b);

    /**
     * Evaluate one point inside the isolation boundary: never
     * throws; on failure marks the point and returns the diagnostic
     * (stage-tagged, with the binding as context). `hook` (may be
     * null) runs before instantiation; `idx` is the point index
     * passed to the hook and recorded on diagnostics.
     */
    Status evaluatePoint(DesignPoint& p, size_t idx,
                         const Hook* hook = nullptr);

    /**
     * Evaluate the n points points[idxs[0..n)] as one batch:
     * structure-of-arrays instantiation against the shared plan, the
     * batched area kernel, then per-point runtime and a batched
     * validate. Every per-point value and every failure diagnostic is
     * bit-identical to n evaluatePoint() calls — batching reorders
     * work across points, never within a point's arithmetic. Failing
     * points (hook, instantiate or runtime) are marked exactly as
     * evaluatePoint() marks them, reported to `sink`, and drop out of
     * the remaining stages; the rest of the batch proceeds. Falls
     * back to the scalar path when the plan is null or has an
     * uncharacterized template class, so those failures keep their
     * scalar per-point diagnostics.
     */
    void evaluateBatch(std::vector<DesignPoint>& points,
                       const size_t* idxs, size_t n, const Hook* hook,
                       DiagSink& sink);

  private:
    /** The staged pipeline; throws, leaving `stage` at the culprit. */
    void run(DesignPoint& p, size_t idx, const Hook* hook,
             const char*& stage);

    /** Mark `p` failed at `stage` from the in-flight exception and
     *  return its diagnostic; the one failure path of both entry
     *  points. */
    Diag failPoint(DesignPoint& p, size_t idx, const char* stage);

    /** Build the batched area plan on first use; false = fall back
     *  to the scalar path (null or uncharacterizable plan). */
    bool ensureBatchPlan();

    const est::AreaEstimator& area_;
    const est::RuntimeEstimator& runtime_;
    const Graph* g_;
    std::shared_ptr<const DesignPlan> plan_;
    std::optional<Inst> inst_; //!< Reused across points.
    est::AreaWorkspace ws_;

    // Batched-path state, all reused across batches.
    InstPool pool_;            //!< Rebind-reusing instance rows.
    est::AreaBatchPlan batchPlan_;
    bool batchPlanTried_ = false;
    est::AreaBatchWorkspace bws_;
    std::vector<est::AreaEstimate> areaOut_;
    std::vector<size_t> liveIdx_;  //!< Point index per pool row.
    std::vector<char> rowFailed_;  //!< Runtime-stage failures.
};

} // namespace dhdl::dse

#endif // DHDL_DSE_EVALUATOR_HH
