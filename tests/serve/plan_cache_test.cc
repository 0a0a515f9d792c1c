/**
 * @file
 * serve/plan_cache: content-addressed compile-once DesignPlan reuse.
 * The centerpiece is the concurrent-reuse test: 8 threads parse and
 * acquire plans for the same and different `.dhdl` texts at once;
 * identical canonical IR must yield the identical plan pointer, and
 * evaluating through a cached plan must be byte-identical to a
 * cold-cache run.
 */

#include "serve/plan_cache.hh"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hh"
#include "core/parser.hh"
#include "core/passes.hh"
#include "core/printer.hh"
#include "estimate/area_estimator.hh"
#include "obs/trace.hh"
#include "serve/protocol.hh"

using namespace dhdl;
using namespace dhdl::serve;

namespace {

Graph
loadDesign(const std::string& name, double scale)
{
    Graph g = apps::loadGraph(name, scale);
    DiagSink sink;
    PassContext ctx(sink);
    PassManager pm = standardPasses();
    EXPECT_TRUE(pm.run(g, ctx).ok());
    return g;
}

/** plan-compile spans the obs trace holds, on every thread. */
size_t
planCompileSpans()
{
    size_t n = 0;
    for (const obs::ThreadTrace& t : obs::snapshotTrace().threads)
        for (const obs::TraceEvent& e : t.events)
            n += std::string(e.name) == "plan-compile";
    return n;
}

/** Round-trip through the canonical text, like a served "ir" body. */
Graph
reparsed(const Graph& g)
{
    ParseResult pr = parseIR(emitIR(g));
    EXPECT_TRUE(pr.ok());
    Graph out = std::move(*pr.graph);
    DiagSink sink;
    PassContext ctx(sink);
    PassManager pm = standardPasses();
    EXPECT_TRUE(pm.run(out, ctx).ok());
    return out;
}

TEST(PlanCache, HitReturnsSameEntryAndCountsIt)
{
    PlanCache cache(4);
    bool hit = true;
    auto a = cache.acquire(loadDesign("gda", 0.05), &hit);
    EXPECT_FALSE(hit);
    ASSERT_TRUE(a);
    ASSERT_TRUE(a->plan);

    auto b = cache.acquire(loadDesign("gda", 0.05), &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->plan.get(), b->plan.get());

    auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.size, 1u);
}

TEST(PlanCache, ByteDifferentTextSameCanonicalIrShares)
{
    PlanCache cache(4);
    Graph direct = loadDesign("dotproduct", 0.1);
    auto a = cache.acquire(std::move(direct), nullptr);
    // A client that round-trips the IR through text submits
    // byte-different input with the same canonical form.
    bool hit = false;
    auto b = cache.acquire(reparsed(a->graph), &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(a.get(), b.get());
}

TEST(PlanCache, DifferentDesignsGetDifferentPlans)
{
    PlanCache cache(4);
    auto a = cache.acquire(loadDesign("gda", 0.05), nullptr);
    auto b = cache.acquire(loadDesign("kmeans", 0.05), nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().size, 2u);
}

TEST(PlanCache, LruEvictsOldestButKeepsHandlesAlive)
{
    PlanCache cache(2);
    auto a = cache.acquire(loadDesign("gda", 0.05), nullptr);
    auto b = cache.acquire(loadDesign("kmeans", 0.05), nullptr);
    // Touch a so kmeans is the LRU victim.
    bool hit = false;
    cache.acquire(loadDesign("gda", 0.05), &hit);
    EXPECT_TRUE(hit);
    auto c = cache.acquire(loadDesign("dotproduct", 0.1), nullptr);
    auto s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.size, 2u);
    // The evicted entry's handle stays valid (shared ownership).
    EXPECT_TRUE(b->plan);
    // gda stayed resident (checked before inserting anything new —
    // the kmeans re-acquire below evicts the then-LRU entry)...
    cache.acquire(loadDesign("gda", 0.05), &hit);
    EXPECT_TRUE(hit);
    // ...while kmeans was evicted: re-acquiring is a miss.
    cache.acquire(loadDesign("kmeans", 0.05), &hit);
    EXPECT_FALSE(hit);
    (void)a;
    (void)c;
}

/**
 * The satellite test: 8 threads concurrently parse + plan-compile a
 * mix of identical and distinct `.dhdl` texts. All requesters of the
 * same canonical IR must receive the identical DesignPlan pointer
 * (compile-once), distinct IRs distinct plans, and nothing tears.
 */
TEST(PlanCache, ConcurrentAcquireFromEightThreads)
{
    PlanCache cache(8);
    // Canonical texts prepared up front; worker threads parse their
    // own copy, exactly like concurrent protocol sessions.
    const std::string gdaText = emitIR(loadDesign("gda", 0.05));
    const std::string kmText = emitIR(loadDesign("kmeans", 0.05));

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const CachedPlan>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::string& text = t % 2 ? kmText : gdaText;
            ParseResult pr = parseIR(text);
            ASSERT_TRUE(pr.ok());
            Graph g = std::move(*pr.graph);
            DiagSink sink;
            PassContext ctx(sink);
            PassManager pm = standardPasses();
            ASSERT_TRUE(pm.run(g, ctx).ok());
            got[t] = cache.acquire(std::move(g), nullptr);
        });
    }
    for (auto& th : threads)
        th.join();

    // Exactly one plan per distinct IR, shared by all its callers.
    std::set<const DesignPlan*> gdaPlans, kmPlans;
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_TRUE(got[t]);
        ASSERT_TRUE(got[t]->plan);
        (t % 2 ? kmPlans : gdaPlans).insert(got[t]->plan.get());
    }
    EXPECT_EQ(gdaPlans.size(), 1u);
    EXPECT_EQ(kmPlans.size(), 1u);
    EXPECT_NE(*gdaPlans.begin(), *kmPlans.begin());

    auto s = cache.stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.hits, uint64_t(kThreads) - 2u);
    EXPECT_EQ(s.collisions, 0u);
}

/**
 * Evaluating through a cache-served plan must produce byte-identical
 * results to a cold-cache exploration of the same design/config.
 */
TEST(PlanCache, CachedPlanEvaluationIsByteIdentical)
{
    static est::RuntimeEstimator rt;
    dse::Explorer ex(est::calibratedEstimator(), rt);
    dse::ExploreConfig cfg;
    cfg.maxPoints = 120;
    cfg.seed = 7;

    // Cold: the driver compiles its own plan, one span.
    Graph cold = loadDesign("gda", 0.05);
    obs::resetTrace();
    dse::ExploreResult coldRes = ex.explore(cold, cfg);
    EXPECT_EQ(planCompileSpans(), 1u);

    // Warm: the identical design through the cache, which compiles
    // it once; the explore with the plan injected compiles nothing.
    PlanCache cache(4);
    obs::resetTrace();
    auto entry = cache.acquire(loadDesign("gda", 0.05), nullptr);
    EXPECT_EQ(planCompileSpans(), 1u);
    obs::resetTrace();
    dse::ExploreConfig warmCfg = cfg;
    warmCfg.plan = entry->plan;
    dse::ExploreResult warmRes = ex.explore(entry->graph, warmCfg);
    EXPECT_EQ(planCompileSpans(), 0u);

    EXPECT_EQ(resultToJson(cold, coldRes).render(),
              resultToJson(entry->graph, warmRes).render());
}

} // namespace
