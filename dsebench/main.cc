/**
 * @file
 * dsebench: one run of one workload. Prints human-readable progress
 * on stderr and, as the last line of stdout, one JSON object with the
 * run's checks and metrics; dsebench/run.py builds this binary, adds
 * the set-up time, and prints the benchmark's result line.
 *
 *   dsebench --workload W --seed N --seconds S --trace 0|1
 *            [--short] [--tmp-dir D] [--trace-out F]
 *   dsebench --setup-only     (calibrate, print "ready", exit)
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <thread>

#include "harness.hh"
#include "serve/json.hh"

using namespace dsebench;
using dhdl::serve::Json;

namespace {

struct Metric {
    const char* name;
    const char* unit;
};

/** End-to-end metrics this binary measures (setup_s is run.py's). */
const Metric kEndToEnd[] = {
    {"pts_per_s", "1/s"},
    {"op_p50_ms", "ms"},
};

/** Per-layer metrics of the traced run. Every workload reports all
 *  of them; a layer the workload never calls reads 0. */
const Metric kPerLayer[] = {
    {"estimate.calibrate_s", "s"},
    {"core.build_s", "s"},
    {"dse.sample_s", "s"},
    {"dse.sample.points", "count"},
    {"dse.sample.shortfall", "count"},
    {"analysis.plan_compile_s", "s"},
    {"dse.evaluator_ctor_s", "s"},
    {"dse.eval_s", "s"},
    {"dse.eval.points", "count"},
    {"dse.eval.failed", "count"},
    {"dse.eval.valid_frac", "frac"},
    {"dse.eval_wall_s_nt", "s"},
    {"cpu.pool.ctor_s", "s"},
    {"cpu.pool.busy_frac", "frac"},
    {"dse.pareto_s", "s"},
    {"dse.pareto.inserts", "count"},
    {"dse.pareto.front", "count"},
    {"dse.ckpt.meta_s", "s"},
    {"dse.ckpt.render_s", "s"},
    {"dse.ckpt.write_s", "s"},
    {"dse.ckpt.writes", "count"},
    {"dse.ckpt.bytes", "B"},
    {"dse.ckpt.load_s", "s"},
    {"dse.strategy.propose_s", "s"},
    {"dse.strategy.observe_s", "s"},
    {"dse.strategy.rounds", "count"},
    {"ml.train_s", "s"},
    {"dse.surrogate.adrs", "frac"},
    {"serve.parse_s", "s"},
    {"serve.plan_acquire_s", "s"},
    {"serve.plan_cache.hit_frac", "frac"},
    {"serve.job_explore_s", "s"},
    {"serve.result_render_s", "s"},
    {"serve.result_bytes", "B"},
    {"serve.submit_ack_ms", "ms"},
    {"gen.late_ms", "ms"},
    {"coverage", "frac"},
    {"other_s", "s"},
};

using Runner =
    std::function<Outcome(const Options&, const Estimators&, Tracer&)>;

const std::map<std::string, Runner>&
workloads()
{
    static const std::map<std::string, Runner> w = {
        {"sweep75k", runSweep},
        {"sweep75k_ckpt", runCheckpoint},
        {"surrogate", runSurrogate},
        {"serve_mix", runServeMix},
    };
    return w;
}

int
usage(const char* why)
{
    std::cerr << "dsebench: " << why << "\nusage: dsebench --workload W "
              << "--seed N --seconds S --trace 0|1 [--short] "
              << "[--tmp-dir D] [--trace-out F] | --setup-only\n"
              << "workloads:";
    for (const auto& [name, run] : workloads())
        std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    return "unknown";
}

Json
metric(double value, const char* unit)
{
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", unit);
    return m;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    bool setupOnly = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char* v = nullptr;
        if (a == "--setup-only")
            setupOnly = true;
        else if (a == "--short")
            o.shortMode = true;
        else if (a == "--workload" && (v = value()))
            o.workload = v;
        else if (a == "--seed" && (v = value()))
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds" && (v = value()))
            o.seconds = std::atof(v);
        else if (a == "--trace" && (v = value()))
            o.trace = std::strcmp(v, "0") != 0;
        else if (a == "--tmp-dir" && (v = value()))
            o.tmpDir = v;
        else if (a == "--trace-out" && (v = value()))
            o.traceOut = v;
        else
            return usage(("bad argument '" + a + "'").c_str());
    }

    if (setupOnly) {
        (void)dhdl::est::calibratedEstimator();
        dhdl::est::RuntimeEstimator rt;
        std::cout << "ready" << std::endl;
        return 0;
    }
    auto it = workloads().find(o.workload);
    if (it == workloads().end())
        return usage("unknown workload");
    if (o.seconds <= 0)
        return usage("--seconds must be positive");
    const unsigned hw = std::thread::hardware_concurrency();
    o.threads = int(std::min(4u, std::max(1u, hw)));

    Tracer tr;
    Layers setup;
    const dhdl::est::AreaEstimator* area = nullptr;
    tr.span("estimate.calibrate_s", setup,
            [&] { area = &dhdl::est::calibratedEstimator(); });
    dhdl::est::RuntimeEstimator runtime;
    const Estimators est{*area, runtime};

    Outcome out;
    try {
        out = it->second(o, est, tr);
    } catch (const std::exception& e) {
        std::cerr << "dsebench: " << o.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
    for (const std::string& p : out.problems)
        std::cerr << "dsebench: check failed: " << p << "\n";

    Json metrics = Json::object();
    if (o.trace) {
        out.layers["estimate.calibrate_s"] = setup["estimate.calibrate_s"];
        for (const Metric& m : kPerLayer)
            metrics.set(m.name, metric(out.layers[m.name], m.unit));
        if (!o.traceOut.empty() && !tr.write(o.traceOut))
            std::cerr << "dsebench: cannot write " << o.traceOut << "\n";
    } else {
        const double e2e[] = {out.ptsPerSec, out.opP50Ms};
        for (size_t i = 0; i < std::size(kEndToEnd); ++i)
            metrics.set(kEndToEnd[i].name, metric(e2e[i], kEndToEnd[i].unit));
    }

    Json detail = Json::object();
    detail.set("error_rate",
               metric(out.attempted ? double(out.failed) /
                                          double(out.attempted)
                                    : 0,
                      "frac"));
    for (const auto& [k, d] : out.detail)
        detail.set(k, metric(d.value, d.unit.c_str()));
    Json prov = Json::object();
    prov.set("workload", o.workload);
    prov.set("seed", o.seed);
    prov.set("threads", o.threads);
    prov.set("nproc", int(hw));
    prov.set("cpu", cpuModel());
    prov.set("build_type", DSEBENCH_BUILD_TYPE);
    // The package never builds with -march=native.
    prov.set("dhdl_native", false);
    prov.set("compiler", DSEBENCH_COMPILER);
    prov.set("short", o.shortMode);

    Json line = Json::object();
    line.set("correct", out.failed == 0);
    line.set("attempted", out.attempted);
    line.set("failed", out.failed);
    line.set("metrics", std::move(metrics));
    line.set("detail", std::move(detail));
    line.set("provenance", std::move(prov));
    std::cout << line.render() << std::endl;
    return 0;
}
