/**
 * dhdld — the persistent DSE-as-a-service daemon (src/serve).
 *
 * Usage: dhdld [flags...]; a bad flag prints them all (the flag table
 * below, shared with dhdlc through tools/flags.hh).
 *
 * Binds a loopback TCP listener (an ephemeral port by default;
 * --port-file publishes the bound port for scripts and CI), prints
 * "dhdld listening on 127.0.0.1:PORT", and serves the line-delimited
 * JSON protocol until SIGTERM/SIGINT, which begin a graceful drain:
 * running jobs finish, streaming clients receive their final events,
 * new submissions are rejected with a structured admission
 * diagnostic. `GET /metrics` on the same port returns the metrics
 * registry in Prometheus exposition format, including the counters
 * and histograms that jobs record (`dhdl_dse_points_evaluated`, ...);
 * `GET /trace` returns the obs trace as the Chrome-trace document
 * `dhdlc --trace` writes: the jobs' `dse` spans and the daemon's
 * `serve` spans, on one timeline.
 */

#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>

#include "estimate/area_estimator.hh"
#include "flags.hh"
#include "serve/server.hh"

using namespace dhdl;

namespace {

serve::Server* gServer = nullptr;

/** SIGTERM/SIGINT: requestStop() is async-signal-safe by contract. */
void
onSignal(int)
{
    if (gServer)
        gServer->requestStop();
}

/** The server's settings plus the daemon's own flags. */
struct Args : serve::ServerConfig {
    std::string portFile;
    bool version = false;
};

const std::vector<tools::FlagDef<Args>>&
flagTable()
{
    using tools::flag, tools::num, tools::str;
    static const std::vector<tools::FlagDef<Args>> table = {
        {"--port", "N", num(&Args::port)},
        {"--port-file", "FILE", str(&Args::portFile)},
        {"--executors", "N", num(&Args::executors)},
        {"--threads", "T", num(&Args::jobThreads)},
        {"--cache-size", "N", num(&Args::cacheCapacity)},
        {"--max-queue", "N", num(&Args::maxQueue)},
        {"--tenant-jobs", "N", num(&Args::tenantMaxJobs)},
        {"--tenant-eval-budget", "N", num(&Args::tenantEvalBudget)},
        {"--max-points", "N", num(&Args::maxPointsPerJob)},
        {"--version", nullptr, flag(&Args::version)},
    };
    return table;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!tools::parseFlags(flagTable(), argc, argv, 1, args)) {
        std::cerr << "usage: dhdld";
        tools::usageFlags(std::cerr, flagTable());
        std::cerr << std::endl;
        return 2;
    }
    if (args.version) {
        std::cout << "dhdld " << serve::versionString()
                  << " (protocol " << serve::kProtocolVersion
                  << ")\n";
        return 0;
    }
    static est::RuntimeEstimator runtime;
    serve::Server server(est::calibratedEstimator(), runtime, args);
    if (Status st = server.start(); !st.ok()) {
        std::cerr << "dhdld: " << st.diag().str() << "\n";
        return 1;
    }
    gServer = &server;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    if (!args.portFile.empty()) {
        std::ofstream pf(args.portFile);
        pf << server.port() << "\n";
        if (!pf) {
            std::cerr << "dhdld: cannot write " << args.portFile
                      << "\n";
            server.requestStop();
            server.wait();
            return 1;
        }
    }
    std::cout << "dhdld listening on 127.0.0.1:" << server.port()
              << std::endl; // endl: flush before callers parse it.

    server.wait();

    const serve::ServerCounters c = server.counters();
    const serve::PlanCache::Stats cs = server.cacheStats();
    std::cout << "dhdld drained: " << c.done << " done, " << c.failed
              << " failed, " << c.cancelled << " cancelled, "
              << c.rejected << " rejected; plan cache " << cs.hits
              << " hit(s) / " << cs.misses << " miss(es)"
              << std::endl;
    return 0;
}
