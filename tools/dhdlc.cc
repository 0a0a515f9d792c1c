/**
 * dhdlc — command-line driver for the DHDL framework.
 *
 * Usage: dhdlc <command> [<design>] [flags...]. Run without
 * arguments for every flag: one table drives parsing and the usage
 * text. Commands: list, print, explore, report, emit, emit-ir,
 * calibrate, submit, status, result, cancel; or `dhdlc --version`.
 *
 * The serving commands talk to a running `dhdld` daemon over its
 * line-delimited JSON protocol (src/serve). `submit` sends a design
 * by registry name, or — when given a `.dhdl` path — reads the file
 * here and ships the IR text, so the daemon never touches client
 * paths; its config is serve::configToJson() of the same
 * ExploreConfig `explore` would run. `--follow` streams incremental
 * Pareto-front updates as search rounds complete and ends with the
 * summary `explore` prints (serve::renderSummary()), minus the
 * Pareto listing. `status`/`result`/`cancel` poll, fetch (`--wait`
 * blocks until the job finishes) and cooperatively cancel. Every
 * exchange carries the protocol version; skew is rejected with a
 * structured version-mismatch diagnostic on both sides.
 *
 * <design> is either a benchmark name from `dhdlc list` or a path to
 * a `.dhdl` IR file (anything ending in ".dhdl"); both take the
 * identical pipeline. `explore` runs design space exploration and
 * prints the Pareto frontier; `report` additionally synthesizes +
 * simulates the best point (estimate vs ground truth); `emit` writes
 * the MaxJ kernel and manager for the best point; `emit-ir` writes
 * the canonical `.dhdl` serialization to stdout (round-trippable:
 * `dhdlc emit-ir gda > gda.dhdl && dhdlc explore gda.dhdl`); `print`
 * dumps the human-readable hierarchy; `calibrate` runs a fresh
 * characterization + ANN training against the default toolchain and
 * writes the calibration to <DIR>/dhdl_calibration.txt (reloadable
 * via est::AreaEstimator(device, stream)). Every other command loads
 * the calibration compiled in from src/estimate/dhdl_calibration.txt,
 * and `dhdlc calibrate --out src/estimate` regenerates that file.
 *
 * Every load goes through apps::loadDesign(), the loader dhdld uses
 * too: built or parsed, the design runs the standard analysis pass
 * pipeline (validate, stats); pass failures are reported as
 * structured diagnostics and abort the command.
 *
 * Observability (src/obs) flags, accepted by every command:
 *   --trace FILE    write a Chrome-trace / Perfetto JSON timeline
 *                   (per-thread spans: passes, DSE stages per point,
 *                   plan compile, sim, codegen)
 *   --metrics FILE  write the metrics registry snapshot as JSON
 *   --profile       print the same snapshot as text to stderr
 * Recording is always on; the three only choose what gets written.
 * All three render one registry snapshot — there is no separate
 * timing plumbing.
 *
 * Fault injection (chaos testing): DHDL_FAULT=point=value[,...] in
 * the environment arms crash/hang/torn-write/corrupt-record seams
 * (src/core/faultinject.hh); dhdlc is the only place that reads it.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "codegen/maxj.hh"
#include "core/faultinject.hh"
#include "core/printer.hh"
#include "core/transform.hh"
#include "dse/explorer.hh"
#include "estimate/power_model.hh"
#include "flags.hh"
#include "fpga/toolchain.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "sim/report.hh"
#include "sim/timing.hh"

using namespace dhdl;

namespace {

struct Args {
    std::string command;
    std::string benchmark;
    double scale = 1.0;
    int points = 2000;
    int top = 10;
    std::string out = ".";
    int threads = 1;
    double timeBudget = 0;
    std::string checkpoint;
    bool resume = false;
    bool profile = false;
    std::string trace;
    std::string metrics;
    long long seed = -1;   //!< -1 keeps the ExploreConfig default.
    long long checkpointEvery = 0; //!< 0 keeps the default cadence.
    std::string strategy;  //!< "random" (default) or "surrogate".
    std::string server;    //!< dhdld address ("host:port" or "port").
    std::string tenant;    //!< Tenant id for serving admission.
    long long job = -1;    //!< Job id for status/result/cancel.
    bool follow = false;   //!< Stream round events on submit.
    bool wait = false;     //!< Block in `result` until finished.
    bool version = false;  //!< Print version + protocol and exit.
};

const std::vector<tools::FlagDef<Args>>&
flagTable()
{
    using tools::flag, tools::num, tools::str;
    static const std::vector<tools::FlagDef<Args>> table = {
        {"--scale", "S", num(&Args::scale)},
        {"--points", "N", num(&Args::points)},
        {"--top", "K", num(&Args::top)},
        {"--out", "DIR", str(&Args::out)},
        {"--threads", "T", num(&Args::threads)},
        {"--time-budget", "SEC", num(&Args::timeBudget)},
        {"--seed", "SEED", num(&Args::seed)},
        {"--checkpoint", "FILE", str(&Args::checkpoint)},
        {"--checkpoint-every", "N", num(&Args::checkpointEvery)},
        {"--resume", nullptr, flag(&Args::resume)},
        {"--strategy", "random|surrogate", str(&Args::strategy)},
        {"--server", "HOST:PORT", str(&Args::server)},
        {"--tenant", "NAME", str(&Args::tenant)},
        {"--job", "ID", num(&Args::job)},
        {"--follow", nullptr, flag(&Args::follow)},
        {"--wait", nullptr, flag(&Args::wait)},
        {"--profile", nullptr, flag(&Args::profile)},
        {"--trace", "FILE", str(&Args::trace)},
        {"--metrics", "FILE", str(&Args::metrics)},
        {"--version", nullptr, flag(&Args::version)},
    };
    return table;
}

int
usage()
{
    std::cerr << "usage: dhdlc "
                 "<list|print|explore|report|emit|emit-ir|"
                 "calibrate|submit|status|result|cancel> "
                 "[benchmark|file.dhdl]";
    tools::usageFlags(std::cerr, flagTable());
    std::cerr << "\n       dhdlc --version" << std::endl;
    return 2;
}

bool
parse(int argc, char** argv, Args& args)
{
    if (argc < 2)
        return false;
    args.command = argv[1];
    int i = 2;
    if (args.command == "--version") {
        args.version = true;
        i = 1; // No command; still parse any remaining flags.
    }
    if (i < argc && argv[i][0] != '-')
        args.benchmark = argv[i++];
    return tools::parseFlags(flagTable(), argc, argv, i, args);
}

/**
 * The design named on the command line — a registry name or a `.dhdl`
 * path — through the one design loader. A failure aborts the command;
 * a failed pass first prints every pass diagnostic and validation
 * error.
 */
apps::LoadedDesign
load(const Args& args)
{
    apps::LoadedDesign l = apps::loadDesign(
        apps::isIRPath(args.benchmark) ? apps::DesignSource::Path
                                       : apps::DesignSource::Name,
        args.benchmark, args.scale);
    if (l.ok())
        return l;
    const Diag& d = l.status.diag();
    if (!l.graph)
        fatal(d.str(), d.code);
    for (const auto& pd : l.diags)
        std::cerr << "dhdlc: " << pd.str() << "\n";
    for (const auto& e : l.art.validationErrors)
        std::cerr << "dhdlc:   " << e << "\n";
    fatal("design '" + args.benchmark + "' failed the analysis pipeline",
          d.code);
}

/** Output stem: the graph name for files, the CLI name otherwise. */
std::string
designStem(const Args& args, const Graph& g)
{
    return apps::isIRPath(args.benchmark) ? g.name() : args.benchmark;
}

/**
 * The one ExploreConfig builder every command shares: `explore`,
 * `report`, `emit` and `submit` all run the configuration built here.
 */
dse::ExploreConfig
makeConfig(const Args& args)
{
    dse::ExploreConfig cfg;
    cfg.maxPoints = args.points;
    cfg.threads = args.threads;
    cfg.timeBudgetSeconds = args.timeBudget;
    cfg.checkpointPath = args.checkpoint;
    cfg.resume = args.resume;
    if (args.seed >= 0)
        cfg.seed = uint64_t(args.seed);
    if (args.checkpointEvery > 0)
        cfg.checkpointEvery = args.checkpointEvery;
    if (!args.strategy.empty()) {
        Status st = dse::parseStrategy(args.strategy, cfg.strategy);
        if (!st.ok())
            fatal(st.diag().message, st.diag().code);
    }
    return cfg;
}

dse::ExploreResult
explore(const Graph& g, const Args& args)
{
    static est::RuntimeEstimator rt;
    dse::Explorer ex(est::calibratedEstimator(), rt);
    return ex.explore(g, makeConfig(args));
}

/** The summary every command prints: serve::renderSummary(). */
void
printSummary(const Graph& g, const dse::ExploreResult& res)
{
    serve::renderSummary(serve::resultToJson(g, res), std::cout);
}

int
cmdList()
{
    std::cout << "benchmarks (Table II):\n";
    for (const auto& app : apps::allApps())
        std::cout << "  " << app.name << "\n";
    std::cout << "  conv2d\n";
    return 0;
}

int
cmdPrint(const Args& args)
{
    apps::LoadedDesign l = load(args);
    std::cout << printGraph(*l.graph);
    const auto& stats = l.art.stats;
    std::cout << "\n# controllers=" << stats.controllers
              << " pipes=" << stats.pipes
              << " metapipes=" << stats.metaPipes
              << " memories=" << stats.memories
              << " transfers=" << stats.transfers
              << " primitives=" << stats.primitives
              << " depth=" << stats.maxDepth
              << " params=" << stats.params << "\n";
    return 0;
}

int
cmdEmitIR(const Args& args)
{
    apps::LoadedDesign l = load(args);
    std::cout << emitIR(*l.graph);
    return 0;
}

void
printPareto(const Graph& g, const dse::ExploreResult& res, int top)
{
    const auto& dev = est::calibratedEstimator().device();
    int shown = 0;
    for (size_t idx : res.pareto) {
        if (shown++ >= top)
            break;
        const auto& p = res.points[idx];
        std::cout << "cycles=" << int64_t(p.cycles)
                  << " alm=" << int64_t(100.0 * p.area.alms /
                                        double(dev.alms))
                  << "% bram=" << int64_t(100.0 * p.area.brams /
                                          double(dev.m20ks))
                  << "%  [" << dse::renderBinding(g, p.binding) << "]\n";
    }
}

int
cmdExplore(const Args& args)
{
    apps::LoadedDesign l = load(args);
    auto res = explore(*l.graph, args);
    printSummary(*l.graph, res);
    printPareto(*l.graph, res, args.top);
    return 0;
}

int
cmdReport(const Args& args)
{
    apps::LoadedDesign l = load(args);
    const Graph& g = *l.graph;
    auto res = explore(g, args);
    auto best = res.bestIndex();
    if (!best) {
        printSummary(g, res);
        std::cerr << "no valid design found\n";
        return 1;
    }
    const auto& p = res.points[*best];
    Inst inst(g, p.binding);
    auto truth = est::defaultToolchain().synthesize(inst);
    auto timed = sim::TimingSim(inst).run();

    std::cout << "best design: [" << dse::renderBinding(g, p.binding)
              << "]\n";
    std::cout << "             estimate      synthesized/simulated\n";
    std::cout << "ALMs     " << int64_t(p.area.alms) << "  vs  "
              << int64_t(truth.alms) << "\n";
    std::cout << "DSPs     " << int64_t(p.area.dsps) << "  vs  "
              << int64_t(truth.dsps) << "\n";
    std::cout << "BRAMs    " << int64_t(p.area.brams) << "  vs  "
              << int64_t(truth.brams) << "\n";
    std::cout << "cycles   " << int64_t(p.cycles) << "  vs  "
              << int64_t(timed.cycles) << "\n";
    std::cout << "power    "
              << int64_t(
                     est::calibratedPowerEstimator().estimateMw(inst))
              << "  vs  " << int64_t(truth.powerMw) << " mW\n";
    std::cout << "runtime  " << timed.seconds * 1e3
              << " ms at 150 MHz\n\n";
    std::cout << sim::timingReport(inst);
    return 0;
}

int
cmdEmit(const Args& args)
{
    apps::LoadedDesign l = load(args);
    const Graph& g = *l.graph;
    auto res = explore(g, args);
    auto best = res.bestIndex();
    if (!best) {
        printSummary(g, res);
        std::cerr << "no valid design found\n";
        return 1;
    }
    Inst inst(g, res.points[*best].binding);
    std::string stem = designStem(args, g);
    std::string kpath = args.out + "/" + stem + ".maxj";
    std::string mpath = args.out + "/" + stem + "Manager.maxj";
    std::ofstream(kpath) << codegen::emitMaxj(inst);
    std::ofstream(mpath) << codegen::emitMaxjManager(inst);
    std::cout << "wrote " << kpath << " and " << mpath << "\n";
    return 0;
}

/** Exit path for client-side failures (transport, handshake). */
int
clientFail(const Status& st)
{
    std::cerr << "dhdlc: " << st.diag().str() << "\n";
    return 1;
}

/** Connect + handshake; shared by every serving command. */
int
clientConnect(const Args& args, serve::Client& c)
{
    require(!args.server.empty(),
            "serving commands need --server HOST:PORT");
    if (Status st = c.connect(args.server); !st.ok())
        return clientFail(st);
    if (Status st = c.hello(); !st.ok())
        return clientFail(st);
    return 0;
}

int
cmdSubmit(const Args& args)
{
    require(!args.benchmark.empty(),
            "submit needs a benchmark name or .dhdl file");
    serve::Client c;
    if (int rc = clientConnect(args, c))
        return rc;

    serve::Json req = serve::Json::object();
    req.set("op", "submit");
    req.set("tenant", args.tenant.empty() ? "dhdlc" : args.tenant);
    if (apps::isIRPath(args.benchmark)) {
        // Ship the IR text: the daemon never reads client paths.
        std::ifstream in(args.benchmark);
        require(bool(in), "cannot read " + args.benchmark);
        std::ostringstream text;
        text << in.rdbuf();
        req.set("ir", text.str());
    } else {
        req.set("design", args.benchmark);
        req.set("scale", args.scale);
    }
    req.set("config", serve::configToJson(makeConfig(args)));
    if (args.follow)
        req.set("stream", true);

    serve::Json resp;
    if (Status st = c.request(req, resp); !st.ok())
        return clientFail(st);
    const serve::Json* ok = resp.find("ok");
    if (!ok || !ok->asBool()) {
        std::cout << resp.render() << "\n";
        return 1;
    }
    const serve::Json* jobId = resp.find("job");
    const serve::Json* cached = resp.find("cached");
    std::cout << "job " << (jobId ? jobId->asInt() : -1)
              << " submitted"
              << (cached && cached->asBool() ? " (plan cache hit)"
                                             : "")
              << "\n";
    if (!args.follow)
        return 0;

    // Stream events until the final "done".
    while (true) {
        serve::Json ev;
        if (Status st = c.recv(ev); !st.ok())
            return clientFail(st);
        const serve::Json* kind = ev.find("event");
        if (!kind)
            continue;
        if (kind->asString() == "round") {
            auto n = [&](const char* k) {
                const serve::Json* v = ev.find(k);
                return v ? v->asInt() : 0;
            };
            std::cout << "round " << n("round") << ": "
                      << n("evaluated") << " evaluated, front size "
                      << n("front_size") << "\n";
            continue;
        }
        if (kind->asString() == "done") {
            const serve::Json* state = ev.find("state");
            std::cout << "job finished: "
                      << (state ? state->asString() : "?") << "\n";
            if (const serve::Json* result = ev.find("result"))
                serve::renderSummary(*result, std::cout);
            else if (const serve::Json* err = ev.find("error"))
                std::cout << "error: " << err->render() << "\n";
            return state && state->asString() == "done" ? 0 : 1;
        }
    }
}

/** status/result/cancel: one request referencing --job. */
int
cmdJobOp(const Args& args, const char* op)
{
    require(args.job >= 0,
            std::string(op) + " needs --job ID");
    serve::Client c;
    if (int rc = clientConnect(args, c))
        return rc;
    serve::Json req = serve::Json::object();
    req.set("op", op);
    req.set("job", args.job);
    if (std::string(op) == "result" && args.wait)
        req.set("wait", true);
    serve::Json resp;
    if (Status st = c.request(req, resp); !st.ok())
        return clientFail(st);
    std::cout << resp.render() << "\n";
    const serve::Json* ok = resp.find("ok");
    return ok && ok->asBool() ? 0 : 1;
}

int
runCommand(const Args& args)
{
    if (args.command == "list")
        return cmdList();
    if (args.command == "calibrate") {
        // Train afresh: saving calibratedEstimator() would only copy
        // out the compiled-in bytes, however stale.
        std::string path = args.out + "/dhdl_calibration.txt";
        std::ofstream out(path);
        est::AreaEstimator(est::defaultToolchain()).save(out);
        out.close();
        if (!out) {
            std::cerr << "dhdlc: cannot write " << path << "\n";
            return 1;
        }
        std::cout << "wrote " << path << "\n";
        return 0;
    }
    for (const char* op : {"status", "result", "cancel"})
        if (args.command == op)
            return cmdJobOp(args, op);
    if (args.benchmark.empty())
        return usage();
    if (args.command == "submit")
        return cmdSubmit(args);
    if (args.command == "print")
        return cmdPrint(args);
    if (args.command == "emit-ir")
        return cmdEmitIR(args);
    if (args.command == "explore")
        return cmdExplore(args);
    if (args.command == "report")
        return cmdReport(args);
    if (args.command == "emit")
        return cmdEmit(args);
    return usage();
}

/**
 * Flush observability output. Runs even when the command failed —
 * a trace of a run that died mid-pipeline is exactly the trace worth
 * keeping.
 */
void
finishObs(const Args& args)
{
    if (args.profile)
        obs::snapshotMetrics().renderText(std::cerr);
    if (!args.metrics.empty()) {
        std::ofstream os(args.metrics);
        os << serve::metricsToJson(obs::snapshotMetrics()).render()
           << "\n";
        if (os)
            std::cerr << "wrote metrics to " << args.metrics << "\n";
        else
            std::cerr << "dhdlc: cannot write metrics to "
                      << args.metrics << "\n";
    }
    if (!args.trace.empty()) {
        std::ofstream os(args.trace);
        serve::writeChromeTrace(os, obs::snapshotTrace());
        if (os)
            std::cerr << "wrote trace to " << args.trace
                      << " (load at ui.perfetto.dev)\n";
        else
            std::cerr << "dhdlc: cannot write trace to " << args.trace
                      << "\n";
    }
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parse(argc, argv, args))
        return usage();
    if (args.version) {
        std::cout << "dhdlc " << serve::versionString()
                  << " (protocol " << serve::kProtocolVersion
                  << ")\n";
        return 0;
    }
    // Chaos seams (DHDL_FAULT=...) are armed only here, at process
    // scope — library consumers and unit tests stay deterministic
    // unless they call fault::configure() themselves.
    fault::configureFromEnv();
    int rc;
    try {
        rc = runCommand(args);
    } catch (const std::exception& e) {
        std::cerr << "dhdlc: " << e.what() << "\n";
        rc = 1;
    }
    finishObs(args);
    return rc;
}
