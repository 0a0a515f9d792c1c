/**
 * PassManager contract: passes run in registration order (executed()
 * names every started pass), per-pass wall-clock lands in the obs
 * registry, the pipeline stops at the first failure, escaping
 * exceptions become structured Diags (run() never throws), and the
 * standard pipeline leaves its artifacts — validation errors and
 * stats — in the context.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/builder.hh"
#include "core/parser.hh"
#include "core/passes.hh"
#include "core/printer.hh"
#include "obs/metrics.hh"

namespace dhdl {
namespace {

Design
tinyDesign()
{
    Design d("tiny");
    d.accel([&](Scope& s) {
        s.pipe("P", {ctr(8)}, Sym::c(1),
               [&](Scope& p, std::vector<Val> ii) {
                   Val four = p.binop(Op::Add, p.constant(1.0),
                                      p.constant(3.0));
                   Mem r = p.reg("r", DType::f32());
                   p.store(r, {ii[0]}, four);
               });
    });
    return d;
}

TEST(PassManagerTest, RunsInOrderAndRecordsObsTimings)
{
    Design d = tinyDesign();
    DiagSink sink;
    PassContext ctx(sink);
    PassManager pm;
    std::vector<std::string> order;
    pm.add("first", [&](const Graph&, PassContext&) {
        order.push_back("first");
        return Status();
    });
    pm.add("second", [&](const Graph&, PassContext&) {
        order.push_back("second");
        return Status();
    });
    ASSERT_TRUE(pm.run(d.graph(), ctx).ok());
    EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
    EXPECT_EQ(pm.executed(),
              (std::vector<std::string>{"first", "second"}));
    // Per-pass wall-clock is recorded through the obs registry, the
    // same snapshot `dhdlc --profile` renders.
    auto snap = obs::snapshotMetrics();
    EXPECT_GE(snap.counter("pass.first.runs"), 1u);
    EXPECT_GE(snap.counter("pass.second.runs"), 1u);
    EXPECT_EQ(sink.size(), 0u);
}

TEST(PassManagerTest, StopsAtFirstFailureAndReportsToSink)
{
    Design d = tinyDesign();
    DiagSink sink;
    PassContext ctx(sink);
    PassManager pm;
    bool ran_after = false;
    pm.add("boom", [](const Graph&, PassContext&) {
        Diag diag;
        diag.code = DiagCode::UserError;
        diag.stage = "boom";
        diag.message = "deliberate failure";
        return Status::error(std::move(diag));
    });
    pm.add("after", [&](const Graph&, PassContext&) {
        ran_after = true;
        return Status();
    });
    Status st = pm.run(d.graph(), ctx);
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(ran_after);
    EXPECT_EQ(st.diag().message, "deliberate failure");
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink.snapshot()[0].stage, "boom");
    // The failing pass still counts as executed; the skipped pass
    // does not.
    EXPECT_EQ(pm.executed(), (std::vector<std::string>{"boom"}));
}

TEST(PassManagerTest, ExceptionsBecomeDiagsNotAborts)
{
    Design d = tinyDesign();
    DiagSink sink;
    PassContext ctx(sink);
    PassManager pm;
    pm.add("thrower", [](const Graph&, PassContext&) -> Status {
        fatal("kaboom", DiagCode::InternalError);
    });
    Status st = pm.run(d.graph(), ctx);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.diag().code, DiagCode::InternalError);
    EXPECT_EQ(st.diag().stage, "thrower");
    EXPECT_NE(st.diag().message.find("kaboom"), std::string::npos);
    EXPECT_EQ(sink.size(), 1u);
}

TEST(PassManagerTest, StandardPipelineLeavesArtifacts)
{
    Design d = tinyDesign();
    DiagSink sink;
    PassContext ctx(sink);
    PassManager pm = standardPasses();
    ASSERT_TRUE(pm.run(d.graph(), ctx).ok());
    EXPECT_TRUE(ctx.art.validationErrors.empty());
    EXPECT_GT(ctx.art.stats.controllers, 0);
    EXPECT_GT(ctx.art.stats.primitives, 0);
    EXPECT_EQ(pm.executed(),
              (std::vector<std::string>{"validate", "stats"}));
}

TEST(PassManagerTest, ValidateFailureCarriesFirstError)
{
    // An intentionally broken graph: a root-less design never leaves
    // the builder, so corrupt a parsed graph's root by hand.
    Design d = tinyDesign();
    Graph g = std::move(parseIR(emitIR(d.graph())).graph.value());
    g.root = kNoNode;
    DiagSink sink;
    PassContext ctx(sink);
    PassManager pm = standardPasses();
    Status st = pm.run(g, ctx);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.diag().stage, "validate");
    EXPECT_FALSE(ctx.art.validationErrors.empty());
    // Pipeline stopped before stats ran.
    EXPECT_EQ(pm.executed(), (std::vector<std::string>{"validate"}));
}

TEST(PassManagerTest, ParsedAndBuiltGraphsProduceIdenticalArtifacts)
{
    Design d = tinyDesign();
    Graph parsed = std::move(parseIR(emitIR(d.graph())).graph.value());

    DiagSink s1, s2;
    PassContext c1(s1), c2(s2);
    PassManager pm1 = standardPasses();
    PassManager pm2 = standardPasses();
    ASSERT_TRUE(pm1.run(d.graph(), c1).ok());
    ASSERT_TRUE(pm2.run(parsed, c2).ok());
    EXPECT_EQ(c1.art.stats.controllers, c2.art.stats.controllers);
    EXPECT_EQ(c1.art.stats.primitives, c2.art.stats.primitives);
    EXPECT_EQ(c1.art.stats.maxDepth, c2.art.stats.maxDepth);
}

} // namespace
} // namespace dhdl
