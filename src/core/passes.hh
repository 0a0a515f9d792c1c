/**
 * @file
 * Instrumented pass pipeline over DHDL graphs. The loose analysis
 * entry points (validate, computeStats) are still callable directly,
 * but the toolchain front door — dhdlc and anything that loads a
 * `.dhdl` file — runs them through a PassManager so that:
 *
 *  - every pass is recorded through the obs subsystem (a trace span
 *    plus `pass.<name>.us` / `pass.<name>.runs` counters), the same
 *    registry the DSE evaluator feeds, so `dhdlc --profile`,
 *    `--trace` and `--metrics` all render one snapshot;
 *  - failures surface as structured Diags in a DiagSink instead of
 *    stringly exceptions, and the pipeline stops at the first failed
 *    pass;
 *  - built and parsed graphs take the identical analysis path, which
 *    is what makes `.dhdl` files first-class citizens.
 */

#ifndef DHDL_CORE_PASSES_HH
#define DHDL_CORE_PASSES_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/diag.hh"
#include "core/graph.hh"
#include "core/transform.hh"

namespace dhdl {

/**
 * Results the standard passes leave behind. Passes write into this
 * instead of returning values so that downstream passes (and the
 * caller) can consume earlier results.
 */
struct PassArtifacts {
    std::vector<std::string> validationErrors;
    GraphStats stats;
};

/** Per-run state handed to every pass. */
class PassContext
{
  public:
    explicit PassContext(DiagSink& sink) : sink_(sink) {}

    DiagSink& sink() { return sink_; }

    PassArtifacts art;

  private:
    DiagSink& sink_;
};

/**
 * One pass: analyse the graph, record artifacts/diags in the context,
 * return ok to continue the pipeline. Passes must not mutate the
 * graph (it is shared with concurrent evaluators in the DSE).
 */
using PassFn = std::function<Status(const Graph&, PassContext&)>;

/**
 * Ordered pass pipeline. Runs passes in registration order, stops at
 * the first failure, and converts any exception escaping a pass into
 * a Diag — run() never throws. Per-pass wall-clock lands in the obs
 * registry and trace (category "pass").
 */
class PassManager
{
  public:
    void
    add(std::string name, PassFn fn)
    {
        passes_.push_back({std::move(name), std::move(fn)});
    }

    /**
     * Execute the pipeline. Failed-pass diagnostics are reported to
     * ctx.sink() and returned; executed() afterwards names every
     * pass that started (including a failing one), in order.
     */
    Status run(const Graph& g, PassContext& ctx);

    size_t size() const { return passes_.size(); }

    /** Names of passes started by the most recent run(), in order. */
    const std::vector<std::string>& executed() const
    {
        return executed_;
    }

  private:
    struct Entry {
        std::string name;
        PassFn fn;
    };

    std::vector<Entry> passes_;
    std::vector<std::string> executed_;
};

/**
 * The standard analysis pipeline: validate, stats. Artifacts land in
 * PassContext::art.
 */
PassManager standardPasses();

} // namespace dhdl

#endif // DHDL_CORE_PASSES_HH
