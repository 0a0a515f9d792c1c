/**
 * @file
 * serve/protocol's explore-config codec and result summary: the key
 * table round-trips every field, leaves defaults out and ignores keys
 * outside it; renderSummary() prints each optional part of the
 * summary line from the result JSON alone.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "serve/protocol.hh"

using namespace dhdl;
using namespace dhdl::serve;

namespace {

TEST(ConfigCodec, DefaultConfigSendsNothing)
{
    EXPECT_EQ(configToJson(dse::ExploreConfig{}).render(), "{}");
}

TEST(ConfigCodec, RoundTripsEveryTableField)
{
    dse::ExploreConfig c;
    c.maxPoints = 1234;
    c.seed = 99;
    c.threads = 3;
    c.evalBudget = 77;
    c.timeBudgetSeconds = 1.5;
    c.strategy = dse::StrategyKind::Surrogate;
    const Json j = configToJson(c);
    EXPECT_EQ(j.render(),
              R"({"points":1234,"seed":99,"threads":3,"eval_budget":77,)"
              R"("time_budget":1.5,"strategy":"surrogate"})");

    dse::ExploreConfig d;
    ASSERT_TRUE(configFromJson(j, d).ok());
    EXPECT_EQ(d.maxPoints, c.maxPoints);
    EXPECT_EQ(d.seed, c.seed);
    EXPECT_EQ(d.threads, c.threads);
    EXPECT_EQ(d.evalBudget, c.evalBudget);
    EXPECT_EQ(d.timeBudgetSeconds, c.timeBudgetSeconds);
    EXPECT_EQ(d.strategy, c.strategy);
    EXPECT_EQ(configToJson(d).render(), j.render());
}

TEST(ConfigCodec, KeysOutsideTheTableAreIgnored)
{
    Json j;
    ASSERT_TRUE(parseJson(R"({"points":10,"checkpoint":"x.ckpt",)"
                          R"("shard":"1/2","resume":true,"batch":1,)"
                          R"("initial_points":9,"max_rounds":4})",
                          j)
                    .ok());
    dse::ExploreConfig d;
    ASSERT_TRUE(configFromJson(j, d).ok());
    EXPECT_EQ(d.maxPoints, 10);
    EXPECT_TRUE(d.checkpointPath.empty());
    EXPECT_FALSE(d.resume);
    EXPECT_EQ(configToJson(d).render(), R"({"points":10})");
}

TEST(ConfigCodec, UnknownStrategyIsAUserError)
{
    Json j;
    ASSERT_TRUE(parseJson(R"({"strategy":"annealing"})", j).ok());
    dse::ExploreConfig d;
    Status st = configFromJson(j, d);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.diag().code, DiagCode::UserError);
    EXPECT_NE(st.diag().message.find("annealing"), std::string::npos);
}

std::string
summaryOf(const std::string& resultJson)
{
    Json j;
    EXPECT_TRUE(parseJson(resultJson, j).ok()) << resultJson;
    std::ostringstream os;
    renderSummary(j, os);
    return os.str();
}

TEST(RenderSummary, PlainResult)
{
    EXPECT_EQ(summaryOf(R"({"stats":{"requested":100,"sampled":100,)"
                        R"("shortfall":false,"evaluated":100,)"
                        R"("failed":0,"valid":90},"front":[{},{}],)"
                        R"("warnings":[],"failures":[]})"),
              "100 points sampled, 100 evaluated, 0 failed, 90 valid, "
              "2 Pareto-optimal\n");
}

TEST(RenderSummary, ResumeTimeBudgetFailuresAndNotes)
{
    EXPECT_EQ(
        summaryOf(R"({"stats":{"requested":100,"sampled":80,)"
                  R"("shortfall":true,"evaluated":50,"resumed":20,)"
                  R"("skipped":30,"time_budget_hit":true,"failed":3,)"
                  R"("valid":40},"front":[{}],"warnings":[{"code":)"
                  R"("time-budget-exceeded","severity":"warning",)"
                  R"("stage":"explore","message":"budget expired"}],)"
                  R"("failures":[{"reason":"area-estimation-failed@area",)"
                  R"("count":3}]})"),
        "80 points sampled (of 100 requested; sampling shortfall), 50 "
        "evaluated (20 from checkpoint), 30 un-evaluated (time budget), "
        "3 failed, 40 valid, 1 Pareto-optimal\n"
        "top failure reasons:\n"
        "  3x area-estimation-failed@area\n"
        "note: warning [time-budget-exceeded] at explore: budget "
        "expired\n");
}

} // namespace
