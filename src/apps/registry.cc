#include "apps/apps.hh"

#include <algorithm>

#include "core/parser.hh"

namespace dhdl::apps {

int64_t
scaledSize(int64_t v, double scale, int64_t quantum)
{
    int64_t scaled = int64_t(double(v) * scale);
    scaled = (scaled / quantum) * quantum;
    return std::max(quantum, scaled);
}

const std::vector<AppEntry>&
allApps()
{
    static const std::vector<AppEntry> apps = {
        {"dotproduct",
         [](double s) {
             DotproductConfig c;
             c.n = scaledSize(c.n, s, 9600);
             return buildDotproduct(c);
         }},
        {"outerprod",
         [](double s) {
             OuterprodConfig c;
             c.n = scaledSize(c.n, s, 960);
             c.m = scaledSize(c.m, s, 960);
             return buildOuterprod(c);
         }},
        {"gemm",
         [](double s) {
             GemmConfig c;
             c.m = scaledSize(c.m, s, 96);
             c.n = scaledSize(c.n, s, 96);
             c.k = scaledSize(c.k, s, 96);
             return buildGemm(c);
         }},
        {"tpchq6",
         [](double s) {
             Tpchq6Config c;
             c.n = scaledSize(c.n, s, 9600);
             return buildTpchq6(c);
         }},
        {"blackscholes",
         [](double s) {
             BlackscholesConfig c;
             c.n = scaledSize(c.n, s, 9216);
             return buildBlackscholes(c);
         }},
        {"gda",
         [](double s) {
             GdaConfig c;
             c.rows = scaledSize(c.rows, s, 960);
             return buildGda(c);
         }},
        {"kmeans",
         [](double s) {
             KmeansConfig c;
             c.n = scaledSize(c.n, s, 960);
             return buildKmeans(c);
         }},
    };
    return apps;
}

Design
buildApp(const std::string& name, double scale)
{
    for (const auto& app : allApps()) {
        if (app.name == name)
            return app.build(scale);
    }
    // conv2d is an extension app, outside the Table II registry.
    if (name == "conv2d") {
        Conv2dConfig c;
        c.h = scaledSize(c.h, scale, 64);
        c.w = scaledSize(c.w, scale, 64);
        return buildConv2d(c);
    }
    fatal("unknown benchmark '" + name + "'; try `dhdlc list`");
}

bool
isIRPath(const std::string& nameOrPath)
{
    const std::string suffix = ".dhdl";
    return nameOrPath.size() > suffix.size() &&
           nameOrPath.compare(nameOrPath.size() - suffix.size(),
                              suffix.size(), suffix) == 0;
}

Graph
loadGraph(const std::string& nameOrPath, double scale)
{
    if (isIRPath(nameOrPath)) {
        ParseResult res = parseIRFile(nameOrPath);
        if (!res.ok())
            fatal(res.status.diag().str(), DiagCode::ParseError);
        return std::move(*res.graph);
    }
    Design d = buildApp(nameOrPath, scale);
    return std::move(d.graph());
}

} // namespace dhdl::apps
