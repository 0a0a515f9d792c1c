/**
 * @file
 * The serve_mix workload: an in-process serve::Server on loopback,
 * driven by one open-loop generator that owns min(4, nproc)
 * connections. Jobs are due at a fixed rate; each is timed from its
 * due time to its final result, so a stall that delays later sends
 * counts against them.
 *
 * The mix: jobs rotate over four tenants and over gda, kmeans and
 * dotproduct at scale 0.05 with 200 points (plan-cache hits). A
 * seeded tail of jobs picks one of 48 other designs — three apps at
 * sixteen scales, more than the cache's 32 entries — so those jobs
 * usually miss and compile a plan.
 *
 * The traced run adds a serial pass over the first jobs of the same
 * schedule (one connection, one job at a time) and an in-process
 * replay of those jobs through the layers the server calls:
 * parseJson, loadGraph + standardPasses, PlanCache::acquire,
 * Explorer::explore, resultToJson(...).render().
 */

#include <algorithm>
#include <atomic>
#include <thread>

#include "apps/apps.hh"
#include "core/passes.hh"
#include "harness.hh"
#include "ml/rng.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace dsebench {

using namespace dhdl;
using namespace dhdl::serve;

namespace {

/**
 * Jobs due per second: about a third of the closed-loop capacity of
 * four protocol clients against this server configuration (943 jobs/s
 * on a 4-vCPU Xeon VM; dsebench/README.md says why not half).
 */
constexpr double kRatePerSec = 300;
constexpr int kPoints = 200;
constexpr double kHotScale = 0.05;
/** Percent of jobs drawn from the cache-missing tail. */
constexpr uint64_t kTailPct = 8;
/** Percent of completed jobs re-explored offline and compared. */
constexpr uint64_t kCheckPct = 2;
/** Jobs in the traced serial pass and replay. */
constexpr size_t kReplayJobs = 300;

const char* const kDesigns[] = {"gda", "kmeans", "dotproduct"};

struct JobSpec {
    std::string design;
    double scale = kHotScale;
    int64_t seed = 0;
    std::string tenant;
    bool check = false;
};

/** The seeded job schedule: job k is due at k / kRatePerSec. */
std::vector<JobSpec>
makeSchedule(uint64_t seed, size_t n)
{
    ml::Rng rng(mixSeed(seed, 0x5E7E));
    std::vector<JobSpec> jobs(n);
    for (size_t k = 0; k < n; ++k) {
        JobSpec& j = jobs[k];
        j.tenant = "tenant-" + std::to_string(k % 4);
        j.design = kDesigns[k % 3];
        if (rng.next() % 100 < kTailPct) {
            j.design = kDesigns[rng.next() % 3];
            j.scale = 0.06 + 0.01 * double(rng.next() % 16);
        }
        j.seed = int64_t(rng.next() % 8);
        j.check = rng.next() % 100 < kCheckPct;
    }
    return jobs;
}

Json
submitRequest(const JobSpec& j)
{
    Json cfg = Json::object();
    cfg.set("points", kPoints);
    cfg.set("seed", j.seed);
    Json req = Json::object();
    req.set("op", "submit");
    req.set("tenant", j.tenant);
    req.set("design", j.design);
    req.set("scale", j.scale);
    req.set("config", cfg);
    req.set("stream", true);
    return req;
}

struct JobRecord {
    bool sent = false;
    bool ok = false;
    double lateS = 0;   //!< Send time minus due time.
    double ackS = 0;    //!< Send to submit acknowledgement.
    double latencyS = 0; //!< Due time to final result.
    int64_t evaluated = 0;
    std::string doneLine; //!< Kept for jobs marked `check`.
    std::string error;
};

/**
 * Submit one job on `c` with streaming on and read until its final
 * event. Fills everything but the timing relative to the due time.
 */
void
runJob(Client& c, const JobSpec& j, JobRecord& r, Clock::time_point& ack,
       Clock::time_point& done)
{
    r.sent = true;
    std::string line;
    if (!c.send(submitRequest(j)).ok() || !c.recvLine(line).ok()) {
        r.error = "transport error on submit";
        return;
    }
    ack = Clock::now();
    Json resp;
    if (!parseJson(line, resp).ok() || !resp.find("ok") ||
        !resp.find("ok")->asBool()) {
        r.error = "submit refused: " + line;
        return;
    }
    while (true) {
        if (!c.recvLine(line).ok()) {
            r.error = "transport error while streaming";
            return;
        }
        if (line.rfind("{\"event\":\"done\"", 0) == 0)
            break;
    }
    done = Clock::now();
    Json ev;
    const Json* state = nullptr;
    if (!parseJson(line, ev).ok() || !(state = ev.find("state")) ||
        state->asString() != "done") {
        r.error = "job did not finish: " + line;
        return;
    }
    if (const Json* res = ev.find("result"))
        if (const Json* st = res->find("stats"))
            if (const Json* e = st->find("evaluated"))
                r.evaluated = e->asInt();
    r.ok = true;
    if (j.check)
        r.doneLine = std::move(line);
}

struct LoopResult {
    std::vector<JobRecord> records; //!< Index = schedule position.
    /** First due time to the last job's final result. */
    double elapsedS = 0;
    PlanCache::Stats cache;
};

/**
 * The open loop: `conns` sender threads, each owning one connection,
 * take the next job of the schedule in order, wait until it is due
 * (job k at k / kRatePerSec, for the jobs due within `seconds`), and
 * run it. Latency runs from the due time.
 */
LoopResult
openLoop(const Estimators& est, int conns, const std::vector<JobSpec>& jobs,
         double seconds)
{
    LoopResult out;
    const size_t due = std::min(jobs.size(), size_t(seconds * kRatePerSec));
    out.records.resize(due);

    ServerConfig scfg;
    scfg.executors = conns;
    scfg.jobThreads = 1;
    Server server(est.area, est.runtime, scfg);
    if (!server.start().ok())
        throw std::runtime_error("serve_mix: server failed to start");

    std::atomic<size_t> next{0};
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> senders;
    for (int t = 0; t < conns; ++t)
        senders.emplace_back([&] {
            Client c;
            const bool up = c.connect(std::to_string(server.port())).ok() &&
                            c.hello().ok();
            for (size_t k; (k = next.fetch_add(1)) < due;) {
                const auto dueAt =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(double(k) /
                                                              kRatePerSec));
                std::this_thread::sleep_until(dueAt);
                JobRecord& r = out.records[k];
                const auto sent = Clock::now();
                if (!up) {
                    r.sent = true;
                    r.error = "cannot connect";
                    continue;
                }
                Clock::time_point ack = sent, done = sent;
                runJob(c, jobs[k], r, ack, done);
                r.lateS = std::chrono::duration<double>(sent - dueAt).count();
                r.ackS = std::chrono::duration<double>(ack - sent).count();
                r.latencyS =
                    std::chrono::duration<double>(done - dueAt).count();
            }
        });
    for (auto& t : senders)
        t.join();
    out.elapsedS = secondsSince(start);
    out.cache = server.cacheStats();
    server.requestStop();
    server.wait();
    return out;
}

/** The result object of a done-event line, re-rendered (the JSON
 *  layer's rendering is byte-stable across parse and render). */
std::string
resultOf(const std::string& doneLine)
{
    Json ev;
    if (!parseJson(doneLine, ev).ok() || !ev.find("result"))
        return {};
    return ev.find("result")->render();
}

/** Offline reference for a served job: the same design, scale, seed
 *  and points explored in-process at one thread. */
std::string
offlineResult(const Estimators& est, const JobSpec& j)
{
    Graph g = buildDesign(j.design, j.scale);
    dse::ExploreConfig cfg;
    cfg.maxPoints = kPoints;
    cfg.seed = uint64_t(j.seed);
    cfg.threads = 1;
    dse::Explorer ex(est.area, est.runtime);
    return resultToJson(g, ex.explore(g, cfg)).render();
}

/** Replay one job through the server's layers; returns the seconds
 *  spent in them and the rendered result. */
double
replayJob(const Estimators& est, Tracer& tr, PlanCache& cache,
          const JobSpec& j, Layers& L, std::string& result)
{
    Layers mine;
    const std::string line = submitRequest(j).render();
    Json req;
    tr.span("serve.parse_s", mine, [&] { (void)parseJson(line, req); });
    std::optional<Graph> g;
    tr.span("core.build_s", mine, [&] {
        Design d = apps::buildApp(req.find("design")->asString(),
                                  req.find("scale")->asDouble());
        g.emplace(std::move(d.graph()));
        DiagSink sink;
        PassContext ctx(sink);
        (void)standardPasses().run(*g, ctx);
    });
    std::shared_ptr<const CachedPlan> design;
    tr.span("serve.plan_acquire_s", mine,
            [&] { design = cache.acquire(std::move(*g)); });

    dse::ExploreConfig cfg;
    cfg.maxPoints = int(req.find("config")->find("points")->asInt());
    cfg.seed = uint64_t(req.find("config")->find("seed")->asInt());
    cfg.threads = 1;
    cfg.plan = design->plan;
    double roundRender = 0;
    cfg.onRound = [&](const dse::RoundStats& rs,
                      const dse::ParetoFront& front,
                      const std::vector<dse::DesignPoint>& pts) {
        const auto r0 = Clock::now();
        Json ev = Json::object();
        ev.set("event", "round");
        ev.set("round", rs.round);
        ev.set("evaluated", rs.evaluated);
        ev.set("front_size", front.size());
        ev.set("front", frontToJson(design->graph, pts, front.indices()));
        (void)ev.render();
        tr.record("serve.result_render_s", r0, Clock::now());
        roundRender += secondsSince(r0);
    };
    const auto e0 = Clock::now();
    const dse::ExploreResult res =
        dse::Explorer(est.area, est.runtime).explore(design->graph, cfg);
    const auto e1 = Clock::now();
    tr.record("serve.job_explore_s", e0, e1);
    mine["serve.job_explore_s"] +=
        std::chrono::duration<double>(e1 - e0).count() - roundRender;
    mine["serve.result_render_s"] += roundRender;

    std::string done;
    tr.span("serve.result_render_s", mine, [&] {
        Json r = resultToJson(design->graph, res);
        result = r.render();
        Json ev = Json::object();
        ev.set("event", "done");
        ev.set("state", "done");
        ev.set("result", std::move(r));
        done = ev.render();
    });
    L["serve.result_bytes"] += double(done.size());
    double covered = 0;
    for (const auto& [k, v] : mine) {
        covered += v;
        L[k] += v;
    }
    return covered;
}

} // namespace

Outcome
runServeMix(const Options& o, const Estimators& est, Tracer& tr)
{
    Outcome out;
    const int conns = o.threads;
    const auto jobs =
        makeSchedule(o.seed, size_t(o.seconds * kRatePerSec) + 1);
    const LoopResult loop = openLoop(est, conns, jobs, o.seconds);

    std::vector<double> lat, late, ack;
    double points = 0;
    for (size_t k = 0; k < loop.records.size(); ++k) {
        const JobRecord& r = loop.records[k];
        if (!r.sent)
            continue;
        ++out.attempted;
        if (!r.ok) {
            out.fail("job " + std::to_string(k) + ": " + r.error);
            continue;
        }
        points += double(r.evaluated);
        lat.push_back(r.latencyS);
        late.push_back(r.lateS);
        ack.push_back(r.ackS);
        if (jobs[k].check &&
            resultOf(r.doneLine) != offlineResult(est, jobs[k]))
            out.fail("job " + std::to_string(k) +
                     ": served result differs from an offline explore");
    }
    // The offered load (kPoints x kRatePerSec) until the server
    // saturates: this slot carries no signal on serve_mix, and
    // op_p50_ms is the workload's bounded figure of the program.
    // Serial-pass throughputs tried in its place spread 0.28-0.39
    // across seeds on a shared 4-vCPU Xeon VM, past the bound.
    out.ptsPerSec = points / loop.elapsedS;
    out.opP50Ms = percentile(lat, 0.5) * 1e3;
    out.detail["job_p50_ms"] = {out.opP50Ms, "ms"};
    out.detail["job_p99_ms"] = {percentile(lat, 0.99) * 1e3, "ms"};
    out.detail["jobs_per_s"] = {double(lat.size()) / loop.elapsedS, "1/s"};
    out.detail["offered_jobs_per_s"] = {kRatePerSec, "1/s"};
    out.detail["jobs"] = {double(lat.size()), "count"};

    if (!o.trace)
        return out;

    Layers& L = out.layers;
    L["serve.submit_ack_ms"] = percentile(ack, 0.5) * 1e3;
    L["gen.late_ms"] = percentile(late, 0.99) * 1e3;
    const PlanCache::Stats& cs = loop.cache;
    L["serve.plan_cache.hit_frac"] =
        cs.hits + cs.misses
            ? double(cs.hits) / double(cs.hits + cs.misses)
            : 0;

    // Serial pass: the same leading jobs, one at a time on a fresh
    // server, so each job's wall-clock has no queueing in it.
    const size_t n = std::min(loop.records.size(), kReplayJobs);
    std::vector<std::string> served(n);
    double serialS = 0;
    {
        ServerConfig scfg;
        scfg.executors = conns;
        scfg.jobThreads = 1;
        Server server(est.area, est.runtime, scfg);
        Client c;
        if (!server.start().ok() ||
            !c.connect(std::to_string(server.port())).ok() ||
            !c.hello().ok())
            throw std::runtime_error("serve_mix: serial pass cannot start");
        for (size_t k = 0; k < n; ++k) {
            JobSpec j = jobs[k];
            j.check = true;
            JobRecord r;
            const auto t0 = Clock::now();
            Clock::time_point a = t0, d = t0;
            runJob(c, j, r, a, d);
            serialS += std::chrono::duration<double>(d - t0).count();
            ++out.attempted;
            if (!r.ok)
                out.fail("serial job " + std::to_string(k) + ": " + r.error);
            served[k] = resultOf(r.doneLine);
        }
        c.close();
        server.requestStop();
        server.wait();
    }

    PlanCache cache;
    double covered = 0;
    Layers sums;
    for (size_t k = 0; k < n; ++k) {
        std::string result;
        covered += replayJob(est, tr, cache, jobs[k], sums, result);
        ++out.attempted;
        if (result != served[k])
            out.fail("replayed job " + std::to_string(k) +
                     " differs from the served result");
    }
    // Serve layers are reported per job.
    for (const auto& [k, v] : sums)
        L[k] = v / double(n);
    L["coverage"] = serialS > 0 ? covered / serialS : 0;
    L["other_s"] = (serialS - covered) / double(n);
    return out;
}

} // namespace dsebench
