/**
 * @file
 * Batch-equivalence property suite: the batched evaluation pipeline
 * (Evaluator::evaluateBatch in any chunking, explore() at any thread
 * count) must reproduce the point-at-a-time path bit for bit — every
 * area field, every cycle count, every failure diagnostic, and the
 * Pareto front. The reference for each design is explore()'s sample
 * set pushed through one Evaluator::evaluatePoint per point;
 * everything else is compared against it with bitwise double
 * comparisons, not tolerances.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "apps/apps.hh"
#include "dse/explorer.hh"

namespace dhdl::dse {
namespace {

const est::RuntimeEstimator&
runtimeEst()
{
    static est::RuntimeEstimator rt;
    return rt;
}

Explorer&
explorer()
{
    static Explorer ex(est::calibratedEstimator(), runtimeEst());
    return ex;
}

/** Bitwise double equality: NaNs compare by payload, -0.0 != +0.0. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

#define EXPECT_BITEQ(a, b, what)                                       \
    EXPECT_TRUE(sameBits((a), (b)))                                    \
        << what << ": " << (a) << " vs " << (b)

void
expectIdentical(const ExploreResult& ref, const ExploreResult& got,
                const std::string& label)
{
    ASSERT_EQ(ref.points.size(), got.points.size()) << label;
    for (size_t i = 0; i < ref.points.size(); ++i) {
        const DesignPoint& a = ref.points[i];
        const DesignPoint& b = got.points[i];
        const std::string at = label + " point " + std::to_string(i);
        EXPECT_EQ(a.binding.values, b.binding.values) << at;
        EXPECT_EQ(a.evaluated, b.evaluated) << at;
        EXPECT_EQ(a.failed, b.failed) << at;
        EXPECT_EQ(a.valid, b.valid) << at;
        EXPECT_EQ(a.failCode, b.failCode) << at;
        EXPECT_EQ(a.failStage, b.failStage) << at;
        EXPECT_EQ(a.failReason, b.failReason) << at;
        EXPECT_BITEQ(a.cycles, b.cycles, at + " cycles");
        EXPECT_BITEQ(a.area.raw.lutsPack, b.area.raw.lutsPack, at);
        EXPECT_BITEQ(a.area.raw.lutsNoPack, b.area.raw.lutsNoPack, at);
        EXPECT_BITEQ(a.area.raw.regs, b.area.raw.regs, at);
        EXPECT_BITEQ(a.area.raw.dsps, b.area.raw.dsps, at);
        EXPECT_BITEQ(a.area.raw.brams, b.area.raw.brams, at);
        EXPECT_BITEQ(a.area.routeLuts, b.area.routeLuts, at);
        EXPECT_BITEQ(a.area.dupRegs, b.area.dupRegs, at);
        EXPECT_BITEQ(a.area.unavailLuts, b.area.unavailLuts, at);
        EXPECT_BITEQ(a.area.dupBrams, b.area.dupBrams, at);
        EXPECT_BITEQ(a.area.alms, b.area.alms, at + " alms");
        EXPECT_BITEQ(a.area.luts, b.area.luts, at);
        EXPECT_BITEQ(a.area.regs, b.area.regs, at);
        EXPECT_BITEQ(a.area.dsps, b.area.dsps, at);
        EXPECT_BITEQ(a.area.brams, b.area.brams, at);
    }
    EXPECT_EQ(ref.pareto, got.pareto) << label;
    ASSERT_EQ(ref.diags.size(), got.diags.size()) << label;
    for (size_t i = 0; i < ref.diags.size(); ++i) {
        const Diag& a = ref.diags[i];
        const Diag& b = got.diags[i];
        const std::string at = label + " diag " + std::to_string(i);
        EXPECT_EQ(a.code, b.code) << at;
        EXPECT_EQ(a.severity, b.severity) << at;
        EXPECT_EQ(a.message, b.message) << at;
        EXPECT_EQ(a.stage, b.stage) << at;
        EXPECT_EQ(a.context, b.context) << at;
        EXPECT_EQ(a.pointIndex, b.pointIndex) << at;
        // `worker` is display-only and scheduling-dependent: skipped.
    }
    EXPECT_EQ(ref.stats.total, got.stats.total) << label;
    EXPECT_EQ(ref.stats.evaluated, got.stats.evaluated) << label;
    EXPECT_EQ(ref.stats.failed, got.stats.failed) << label;
    EXPECT_EQ(ref.stats.valid, got.stats.valid) << label;
}

constexpr int kPoints = 160; //!< Ragged against every batch size.

/** All designs under test: the app registry plus the conv2d
 *  extension app (stencil shapes: delay lines, halo'd tiles). */
std::vector<std::pair<std::string, Design>>
designs()
{
    std::vector<std::pair<std::string, Design>> out;
    for (const auto& app : apps::allApps())
        out.emplace_back(app.name, app.build(0.5));
    out.emplace_back("conv2d", apps::buildConv2d());
    return out;
}

ExploreConfig
config(int threads, const Evaluator::Hook& hook)
{
    ExploreConfig cfg;
    cfg.maxPoints = kPoints;
    cfg.threads = threads;
    cfg.preEvaluate = hook;
    return cfg;
}

/** explore()'s sample set, un-evaluated; sampling diags go to sink. */
std::vector<DesignPoint>
samplePoints(const Graph& g, DiagSink& sink)
{
    std::vector<DesignPoint> points;
    for (ParamBinding& b :
         sampleGlobal(ParamSpace(g), config(1, {}), &sink)) {
        points.emplace_back();
        points.back().binding = std::move(b);
    }
    return points;
}

/** Evaluated points as explore() reports them: canonical diag order,
 *  Pareto front and counts. */
ExploreResult
resultOf(std::vector<DesignPoint> points, DiagSink& sink)
{
    ExploreResult r;
    r.points = std::move(points);
    r.pareto = paretoOf(r.points);
    r.diags = sink.drain();
    sortDiags(r.diags);
    r.stats.total = r.points.size();
    for (const DesignPoint& p : r.points) {
        r.stats.evaluated += p.evaluated ? 1 : 0;
        r.stats.failed += p.failed ? 1 : 0;
        r.stats.valid += p.valid ? 1 : 0;
    }
    return r;
}

/** The reference: one Evaluator::evaluatePoint per sampled point. */
ExploreResult
scalarReference(const Graph& g, const Evaluator::Hook& hook)
{
    DiagSink sink;
    std::vector<DesignPoint> points = samplePoints(g, sink);
    Evaluator ev(est::calibratedEstimator(), runtimeEst(), g);
    for (size_t i = 0; i < points.size(); ++i) {
        Status s = ev.evaluatePoint(points[i], i, &hook);
        if (!s.ok())
            sink.report(s.diag());
    }
    return resultOf(std::move(points), sink);
}

/** The sample set through Evaluator::evaluateBatch, `chunk` points
 *  per call. */
ExploreResult
batched(const Graph& g, size_t chunk, const Evaluator::Hook& hook)
{
    DiagSink sink;
    std::vector<DesignPoint> points = samplePoints(g, sink);
    std::vector<size_t> idxs(points.size());
    std::iota(idxs.begin(), idxs.end(), size_t(0));
    Evaluator ev(est::calibratedEstimator(), runtimeEst(), g);
    for (size_t lo = 0; lo < idxs.size(); lo += chunk)
        ev.evaluateBatch(points, &idxs[lo],
                         std::min(chunk, idxs.size() - lo), &hook,
                         sink);
    return resultOf(std::move(points), sink);
}

/** Every chunking of evaluateBatch and explore() at threads {1, 4}
 *  equal the scalar reference. */
void
expectAllPathsMatchScalar(const std::string& name, const Graph& g,
                          const Evaluator::Hook& hook)
{
    const ExploreResult ref = scalarReference(g, hook);
    ASSERT_GT(ref.stats.evaluated, 0u) << name;
    if (hook) {
        ASSERT_GT(ref.stats.failed, 0u) << name;
        ASSERT_GT(ref.stats.evaluated, ref.stats.failed) << name;
    }
    // Chunks: degenerate (1), ragged (7), the explore() batch (64),
    // and the whole sample set in one call.
    for (size_t chunk : {size_t(1), size_t(7), size_t(64),
                         ref.points.size()})
        expectIdentical(ref, batched(g, chunk, hook),
                        name + " chunk=" + std::to_string(chunk));
    for (int threads : {1, 4})
        expectIdentical(ref,
                        explorer().explore(g, config(threads, hook)),
                        name + " explore threads=" +
                            std::to_string(threads));
}

TEST(BatchEquiv, EveryBatchSizeMatchesScalarBitForBit)
{
    for (auto& [name, d] : designs())
        expectAllPathsMatchScalar(name, d.graph(), {});
}

TEST(BatchEquiv, FailingPointsMidBatchMatchScalar)
{
    // Deterministic per-index failures injected through the
    // pre-evaluate seam: points 3, 20, 37, ... throw inside the
    // batch. The batched pipeline must exclude exactly those points,
    // keep evaluating their batchmates, and report the identical
    // diagnostics the scalar path produces.
    auto hook = [](const ParamBinding&, size_t idx) {
        if (idx % 17 == 3)
            throw std::runtime_error("injected fault at point " +
                                     std::to_string(idx));
    };
    for (auto& [name, d] : designs())
        expectAllPathsMatchScalar(name + " faulted", d.graph(), hook);
}

} // namespace
} // namespace dhdl::dse
