#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "core/validate.hh"
#include "dse/space.hh"

namespace dhdl::apps {
namespace {

TEST(AppsTest, RegistryHasSevenBenchmarksInPaperOrder)
{
    const auto& apps = allApps();
    ASSERT_EQ(apps.size(), 7u);
    EXPECT_EQ(apps[0].name, "dotproduct");
    EXPECT_EQ(apps[1].name, "outerprod");
    EXPECT_EQ(apps[2].name, "gemm");
    EXPECT_EQ(apps[3].name, "tpchq6");
    EXPECT_EQ(apps[4].name, "blackscholes");
    EXPECT_EQ(apps[5].name, "gda");
    EXPECT_EQ(apps[6].name, "kmeans");
}

TEST(AppsTest, AllAppsValidateAtPaperScale)
{
    for (const auto& app : allApps()) {
        Design d = app.build(1.0);
        auto errs = validate(d.graph());
        EXPECT_TRUE(errs.empty())
            << app.name << ": " << (errs.empty() ? "" : errs[0]);
    }
}

TEST(AppsTest, AllAppsValidateScaledDown)
{
    for (const auto& app : allApps()) {
        Design d = app.build(0.01);
        EXPECT_TRUE(validate(d.graph()).empty()) << app.name;
    }
}

TEST(AppsTest, DefaultBindingsAreLegal)
{
    for (const auto& app : allApps()) {
        Design d = app.build(0.05);
        dse::ParamSpace space(d.graph());
        auto b = d.params().defaults();
        EXPECT_TRUE(d.params().isLegal(b)) << app.name;
        EXPECT_TRUE(space.isLegal(b)) << app.name;
    }
}

TEST(AppsTest, GdaDeclaresFigure3Parameters)
{
    Design d = buildGda();
    const auto& params = d.params();
    std::vector<std::string> names;
    for (size_t i = 0; i < params.size(); ++i)
        names.push_back(params[ParamId(i)].name);
    for (const char* expected :
         {"muSize", "inTileSize", "P1Par", "P2Par", "M1Par", "M2Par",
          "M1toggle", "M2toggle"})
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
}

TEST(AppsTest, EveryAppHasExplorableSpace)
{
    for (const auto& app : allApps()) {
        Design d = app.build(0.05);
        dse::ParamSpace space(d.graph());
        EXPECT_GT(space.sizeEstimate(), 10.0) << app.name;
        EXPECT_FALSE(space.sample(20, 1).empty()) << app.name;
    }
}

TEST(AppsTest, MetaPipeTogglesPresentInEveryApp)
{
    for (const auto& app : allApps()) {
        Design d = app.build(0.05);
        bool has_toggle = false;
        for (size_t i = 0; i < d.params().size(); ++i)
            has_toggle |=
                d.params()[ParamId(i)].kind == ParamKind::Toggle;
        EXPECT_TRUE(has_toggle) << app.name;
    }
}

TEST(AppsTest, ScaledSizeQuantizes)
{
    EXPECT_EQ(scaledSize(1000, 0.5, 96), 480);
    EXPECT_EQ(scaledSize(1000, 0.0001, 96), 96); // floor at quantum
    EXPECT_EQ(scaledSize(192, 1.0, 96), 192);
}

TEST(AppsTest, IRPathIsAnythingEndingInDotDhdl)
{
    EXPECT_TRUE(isIRPath("gda.dhdl"));
    EXPECT_TRUE(isIRPath("dir/x.dhdl"));
    EXPECT_FALSE(isIRPath("gda"));
    EXPECT_FALSE(isIRPath(".dhdl")); // a suffix alone names no file
    EXPECT_FALSE(isIRPath("gda.dhdl.bak"));
}

} // namespace
} // namespace dhdl::apps
