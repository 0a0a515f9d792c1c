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

namespace {

/** Build or parse `what`; the Status carries the failure's diag. */
Status
readGraph(DesignSource src, const std::string& what, double scale,
          std::optional<Graph>& g)
{
    if (src == DesignSource::Name) {
        try {
            g.emplace(std::move(buildApp(what, scale).graph()));
            return Status();
        } catch (...) {
            return Status::error(diagFromCurrentException("load"));
        }
    }
    ParseResult pr = src == DesignSource::Path ? parseIRFile(what)
                                               : parseIR(what);
    g = std::move(pr.graph);
    return pr.status;
}

} // namespace

LoadedDesign
loadDesign(DesignSource src, const std::string& what, double scale)
{
    LoadedDesign out;
    out.status = readGraph(src, what, scale, out.graph);
    if (!out.ok())
        return out;
    DiagSink sink;
    PassContext ctx(sink);
    out.status = standardPasses().run(*out.graph, ctx);
    out.art = std::move(ctx.art);
    out.diags = sink.drain();
    return out;
}

Graph
loadGraph(const std::string& nameOrPath, double scale)
{
    std::optional<Graph> g;
    Status st = readGraph(isIRPath(nameOrPath) ? DesignSource::Path
                                               : DesignSource::Name,
                          nameOrPath, scale, g);
    if (!st.ok())
        fatal(st.diag().str(), st.diag().code);
    return std::move(*g);
}

} // namespace dhdl::apps
