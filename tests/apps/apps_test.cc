#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "apps/apps.hh"
#include "core/printer.hh"
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

/** The three sources load the identical design through the passes. */
TEST(LoadDesign, NamePathAndTextAgree)
{
    LoadedDesign byName = loadDesign(DesignSource::Name, "gda", 0.05);
    ASSERT_TRUE(byName.ok());
    EXPECT_GT(byName.art.stats.controllers, 0);
    const std::string ir = emitIR(*byName.graph);

    LoadedDesign byText = loadDesign(DesignSource::IRText, ir);
    ASSERT_TRUE(byText.ok());
    EXPECT_EQ(emitIR(*byText.graph), ir);

    const std::string path = ::testing::TempDir() + "load_design.dhdl";
    std::ofstream(path) << ir;
    LoadedDesign byPath = loadDesign(DesignSource::Path, path);
    std::remove(path.c_str());
    ASSERT_TRUE(byPath.ok());
    EXPECT_EQ(emitIR(*byPath.graph), ir);
}

TEST(LoadDesign, FailuresComeBackAsStatus)
{
    LoadedDesign unknown = loadDesign(DesignSource::Name, "nosuch");
    ASSERT_FALSE(unknown.ok());
    EXPECT_FALSE(unknown.graph);
    EXPECT_EQ(unknown.status.diag().code, DiagCode::UserError);
    EXPECT_EQ(unknown.status.diag().stage, "load");

    // A name is never opened as a file, whatever it ends in.
    EXPECT_FALSE(loadDesign(DesignSource::Name, "gda.dhdl").ok());

    LoadedDesign garbled =
        loadDesign(DesignSource::IRText, "dhdl 1\nnot ir\n");
    ASSERT_FALSE(garbled.ok());
    EXPECT_FALSE(garbled.graph);
    EXPECT_EQ(garbled.status.diag().code, DiagCode::ParseError);

    // Parses, then fails validation: the graph is kept and the pass
    // diagnostics say why.
    std::string ir =
        emitIR(*loadDesign(DesignSource::Name, "gda", 0.05).graph);
    const std::string from = "addr=[%23,%28]";
    ASSERT_NE(ir.find(from), std::string::npos);
    ir.replace(ir.find(from), from.size(), "addr=[%23]");
    LoadedDesign invalid = loadDesign(DesignSource::IRText, ir);
    ASSERT_FALSE(invalid.ok());
    EXPECT_TRUE(invalid.graph);
    EXPECT_EQ(invalid.status.diag().stage, "validate");
    EXPECT_FALSE(invalid.diags.empty());
    EXPECT_FALSE(invalid.art.validationErrors.empty());
}

} // namespace
} // namespace dhdl::apps
