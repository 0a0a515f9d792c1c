/**
 * @file
 * The seven evaluation benchmarks of Table II, each expressed as a
 * parameterized DHDL design via the builder DSL. Every design
 * declares the paper's explored parameters — tile sizes,
 * parallelization factors at each loop level, and MetaPipe toggles —
 * so a single graph spans the whole design space (Section III-C).
 *
 * Configs default to the paper's dataset sizes; tests pass reduced
 * sizes for functional verification against the CPU kernels.
 */

#ifndef DHDL_APPS_APPS_HH
#define DHDL_APPS_APPS_HH

#include <functional>
#include <string>

#include "apps/datasets.hh"
#include "core/builder.hh"

namespace dhdl::apps {

struct DotproductConfig {
    int64_t n = PaperSizes::dotN;
};
Design buildDotproduct(const DotproductConfig& cfg = {});

struct OuterprodConfig {
    int64_t n = PaperSizes::outerN;
    int64_t m = PaperSizes::outerM;
};
Design buildOuterprod(const OuterprodConfig& cfg = {});

struct GemmConfig {
    int64_t m = PaperSizes::gemmM;
    int64_t n = PaperSizes::gemmN;
    int64_t k = PaperSizes::gemmK;
};
Design buildGemm(const GemmConfig& cfg = {});

struct Tpchq6Config {
    int64_t n = PaperSizes::tpchN;
};
Design buildTpchq6(const Tpchq6Config& cfg = {});

struct BlackscholesConfig {
    int64_t n = PaperSizes::bsN;
};
Design buildBlackscholes(const BlackscholesConfig& cfg = {});

struct GdaConfig {
    int64_t rows = PaperSizes::gdaR;
    int64_t cols = PaperSizes::gdaC;
};
Design buildGda(const GdaConfig& cfg = {});

struct KmeansConfig {
    int64_t n = PaperSizes::kmN;
    int64_t k = PaperSizes::kmK;
    int64_t dim = PaperSizes::kmD;
};
Design buildKmeans(const KmeansConfig& cfg = {});

/**
 * Extension app (not part of Table II): 2-D valid convolution of an
 * image with a small kernel, demonstrating stencil-style designs.
 * Output is (h-k+1) x (w-k+1).
 */
struct Conv2dConfig {
    int64_t h = 1024;
    int64_t w = 1024;
    int64_t k = 5;
};
Design buildConv2d(const Conv2dConfig& cfg = {});

/** One registry entry: a named benchmark with scalable datasets. */
struct AppEntry {
    std::string name;
    /** Build at `scale` (1.0 = Table II sizes; smaller shrinks). */
    std::function<Design(double)> build;
};

/** All seven Table II benchmarks, in paper order. */
const std::vector<AppEntry>& allApps();

/** Round v*scale down to a multiple of `quantum` (at least one). */
int64_t scaledSize(int64_t v, double scale, int64_t quantum);

/**
 * Build a named app at `scale`: any allApps() entry plus the
 * "conv2d" extension app. Throws FatalError for unknown names.
 */
Design buildApp(const std::string& name, double scale = 1.0);

/** Is `nameOrPath` a `.dhdl` IR file (anything ending in ".dhdl")
 *  rather than an app name? */
bool isIRPath(const std::string& nameOrPath);

/**
 * Uniform graph front door for the whole toolchain: an isIRPath()
 * name is parsed from disk (core/parser), anything else is built
 * by buildApp(). Parse failures throw FatalError carrying the parse
 * diagnostic, so callers treat files and names identically.
 */
Graph loadGraph(const std::string& nameOrPath, double scale = 1.0);

} // namespace dhdl::apps

#endif // DHDL_APPS_APPS_HH
