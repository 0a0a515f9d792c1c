/**
 * @file
 * End-to-end serving tests over real loopback sockets: streamed
 * results byte-identical to offline exploration, plan-cache reuse
 * visible in counters and the trace, admission-control rejections,
 * cooperative cancel, protocol hardening (malformed requests,
 * version skew), the /metrics and /trace scrapes, and graceful drain.
 */

#include "serve/server.hh"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>

#include "apps/apps.hh"
#include "analysis/templates.hh"
#include "core/faultinject.hh"
#include "core/passes.hh"
#include "core/printer.hh"
#include "estimate/area_estimator.hh"
#include "obs/trace.hh"
#include "serve/client.hh"

using namespace dhdl;
using namespace dhdl::serve;

namespace {

const est::RuntimeEstimator&
runtimeEst()
{
    static est::RuntimeEstimator rt;
    return rt;
}

/** The offline reference: what `dhdlc explore` computes and what a
 *  served job of the same design/config must reproduce exactly. */
std::string
offlineResultJson(const std::string& design, double scale,
                  int points, uint64_t seed)
{
    Graph g = apps::loadGraph(design, scale);
    DiagSink sink;
    PassContext ctx(sink);
    PassManager pm = standardPasses();
    EXPECT_TRUE(pm.run(g, ctx).ok());
    dse::ExploreConfig cfg;
    cfg.maxPoints = points;
    cfg.seed = seed;
    dse::Explorer ex(est::calibratedEstimator(), runtimeEst());
    return resultToJson(g, ex.explore(g, cfg)).render();
}

Json
submitRequest(const std::string& design, const std::string& tenant,
              double scale, int points, uint64_t seed)
{
    Json cfg = Json::object();
    cfg.set("points", points);
    cfg.set("seed", seed);
    Json req = Json::object();
    req.set("op", "submit");
    req.set("tenant", tenant);
    req.set("design", design);
    req.set("scale", scale);
    req.set("config", std::move(cfg));
    return req;
}

/** GET `path` from the daemon over plain HTTP, as curl would; the
 *  whole response, status line and headers included. */
std::string
httpGet(int port, const std::string& path)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(uint16_t(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr),
              0);
    const std::string get = "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(fd, get.data(), get.size(), 0), ssize_t(get.size()));
    std::string http;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        http.append(buf, size_t(n));
    ::close(fd);
    return http;
}

/** The body of a 200 response; fails the test on any other. */
std::string
bodyOf(const std::string& http)
{
    EXPECT_EQ(http.rfind("HTTP/1.0 200", 0), 0u) << http.substr(0, 64);
    const size_t bodyAt = http.find("\r\n\r\n");
    EXPECT_NE(bodyAt, std::string::npos);
    return bodyAt == std::string::npos ? "" : http.substr(bodyAt + 4);
}

struct ServerFixture : ::testing::Test {
    ServerConfig cfg;
    const est::AreaEstimator* area = nullptr; //!< nullptr: calibrated.
    std::unique_ptr<Server> server;

    void
    startServer()
    {
        server = std::make_unique<Server>(
            area ? *area : est::calibratedEstimator(), runtimeEst(),
            cfg);
        ASSERT_TRUE(server->start().ok());
    }

    Client
    connect()
    {
        Client c;
        EXPECT_TRUE(
            c.connect("127.0.0.1:" + std::to_string(server->port()))
                .ok());
        return c;
    }

    void
    TearDown() override
    {
        if (server) {
            server->requestStop();
            server->wait();
        }
        fault::reset(); // Disarm any seam a test armed, even on failure.
    }
};

TEST_F(ServerFixture, HelloHandshake)
{
    startServer();
    Client c = connect();
    std::string version;
    ASSERT_TRUE(c.hello(&version).ok());
    EXPECT_EQ(version, versionString());
}

TEST_F(ServerFixture, VersionSkewIsStructuredError)
{
    startServer();
    Client c = connect();
    Json req = Json::object();
    req.set("op", "hello");
    req.set("proto", kProtocolVersion + 1);
    ASSERT_TRUE(c.send(req).ok());
    Json resp;
    ASSERT_TRUE(c.recv(resp).ok());
    EXPECT_FALSE(resp.find("ok")->asBool());
    EXPECT_EQ(resp.find("error")->find("code")->asString(),
              "version-mismatch");
}

TEST_F(ServerFixture, MalformedRequestsRejectedNotDropped)
{
    startServer();
    Client c = connect();
    // Bad JSON, non-object, missing op, unknown ops (the last two
    // are ops the protocol dropped for GET /trace and GET /metrics):
    // each gets a structured ParseError response on the same
    // connection — the session survives them all.
    const char* const bads[] = {
        "this is not json", "[1,2,3]", "{\"x\":1}",
        "{\"op\":\"frobnicate\"}", "{\"op\":\"trace\",\"job\":1}",
        "{\"op\":\"metrics\"}"};
    for (const char* bad : bads) {
        ASSERT_TRUE(c.sendLine(bad).ok());
        Json resp;
        ASSERT_TRUE(c.recv(resp).ok()) << bad;
        EXPECT_FALSE(resp.find("ok")->asBool()) << bad;
        EXPECT_EQ(resp.find("error")->find("code")->asString(),
                  "parse-error")
            << bad;
    }
    EXPECT_EQ(server->counters().malformed, std::size(bads));
    // The connection still works.
    ASSERT_TRUE(c.hello().ok());
}

/**
 * The acceptance path: two tenants submit different designs
 * concurrently with streaming on; each streamed final result must be
 * byte-identical to the offline exploration of the same design, seed
 * and config, and the per-round events must be consistent.
 */
TEST_F(ServerFixture, ConcurrentTenantsStreamByteIdenticalResults)
{
    cfg.executors = 2;
    startServer();

    struct Outcome {
        std::string resultJson;
        int rounds = 0;
        std::string lastRoundFront;
        std::string finalFront;
    };
    auto run = [&](const std::string& design,
                   const std::string& tenant, Outcome& out) {
        Client c = connect();
        ASSERT_TRUE(c.hello().ok());
        Json req = submitRequest(design, tenant, 0.05, 150, 11);
        req.set("stream", true);
        Json resp;
        ASSERT_TRUE(c.request(req, resp).ok());
        ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
        while (true) {
            Json ev;
            ASSERT_TRUE(c.recv(ev).ok());
            const Json* kind = ev.find("event");
            ASSERT_NE(kind, nullptr);
            if (kind->asString() == "round") {
                ++out.rounds;
                out.lastRoundFront = ev.find("front")->render();
                continue;
            }
            ASSERT_EQ(kind->asString(), "done");
            EXPECT_EQ(ev.find("state")->asString(), "done");
            const Json* result = ev.find("result");
            ASSERT_NE(result, nullptr);
            out.resultJson = result->render();
            out.finalFront = result->find("front")->render();
            return;
        }
    };

    Outcome gda, kmeans;
    std::thread t1([&] { run("gda", "tenant-a", gda); });
    std::thread t2([&] { run("kmeans", "tenant-b", kmeans); });
    t1.join();
    t2.join();

    // Byte-identical to the offline run of the same seed/config.
    EXPECT_EQ(gda.resultJson, offlineResultJson("gda", 0.05, 150, 11));
    EXPECT_EQ(kmeans.resultJson,
              offlineResultJson("kmeans", 0.05, 150, 11));
    // Random strategy = one round; its incremental front is final.
    EXPECT_EQ(gda.rounds, 1);
    EXPECT_EQ(gda.lastRoundFront, gda.finalFront);
    EXPECT_EQ(kmeans.lastRoundFront, kmeans.finalFront);
}

/**
 * Resubmitting the same design hits the plan cache: the hit counter
 * increments, and the daemon's GET /trace holds the cold submit's
 * plan compile and no second one.
 */
TEST_F(ServerFixture, RepeatSubmissionHitsPlanCache)
{
    obs::resetTrace();
    startServer();
    Client c = connect();
    ASSERT_TRUE(c.hello().ok());

    auto submitAndWait = [&](uint64_t* jobId) {
        Json resp;
        ASSERT_TRUE(
            c.request(submitRequest("gda", "t", 0.05, 60, 3), resp)
                .ok());
        ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
        *jobId = uint64_t(resp.find("job")->asInt());
        Json wait = Json::object();
        wait.set("op", "result");
        wait.set("job", *jobId);
        wait.set("wait", true);
        ASSERT_TRUE(c.request(wait, resp).ok());
        ASSERT_EQ(resp.find("state")->asString(), "done");
    };

    uint64_t first = 0, second = 0;
    submitAndWait(&first);
    auto s0 = server->cacheStats();
    EXPECT_EQ(s0.misses, 1u);
    EXPECT_EQ(s0.hits, 0u);
    submitAndWait(&second);
    auto s1 = server->cacheStats();
    EXPECT_EQ(s1.misses, 1u);
    EXPECT_EQ(s1.hits, 1u);

    // The obs trace, served and parsed back.
    Json trace;
    ASSERT_TRUE(parseJson(bodyOf(httpGet(server->port(), "/trace")),
                          trace)
                    .ok());
    size_t compiles = 0;
    for (const Json& e : trace.find("traceEvents")->items())
        compiles += e.find("name")->asString() == "plan-compile";
    EXPECT_EQ(compiles, 1u);

    // Identical results either way.
    auto resultOf = [&](uint64_t job) {
        Json req = Json::object();
        req.set("op", "result");
        req.set("job", job);
        Json resp;
        EXPECT_TRUE(c.request(req, resp).ok());
        return resp.find("result")->render();
    };
    EXPECT_EQ(resultOf(first), resultOf(second));
}

TEST_F(ServerFixture, TenantEvalBudgetEnforcedAndStructured)
{
    cfg.tenantEvalBudget = 100;
    startServer();
    Client c = connect();

    // First job fits the budget and completes.
    Json resp;
    ASSERT_TRUE(c.request(submitRequest("gda", "payer", 0.05, 80, 1),
                          resp)
                    .ok());
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
    Json wait = Json::object();
    wait.set("op", "result");
    wait.set("job", resp.find("job")->asInt());
    wait.set("wait", true);
    ASSERT_TRUE(c.request(wait, resp).ok());
    ASSERT_EQ(resp.find("state")->asString(), "done");

    // The next one exceeds the remaining budget: a structured
    // admission-rejected Diag, not a dropped request.
    ASSERT_TRUE(c.request(submitRequest("gda", "payer", 0.05, 80, 1),
                          resp)
                    .ok());
    EXPECT_FALSE(resp.find("ok")->asBool());
    const Json* err = resp.find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("code")->asString(), "admission-rejected");
    EXPECT_NE(err->find("message")->asString().find("budget"),
              std::string::npos);

    // A different tenant is unaffected.
    ASSERT_TRUE(c.request(submitRequest("gda", "other", 0.05, 80, 1),
                          resp)
                    .ok());
    EXPECT_TRUE(resp.find("ok")->asBool()) << resp.render();
    EXPECT_EQ(server->counters().rejected, 1u);
}

TEST_F(ServerFixture, PerJobPointCapRejectsOversizedRequests)
{
    cfg.maxPointsPerJob = 500;
    startServer();
    Client c = connect();
    Json resp;
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.05, 50000, 1), resp)
            .ok());
    EXPECT_FALSE(resp.find("ok")->asBool());
    EXPECT_EQ(resp.find("error")->find("code")->asString(),
              "admission-rejected");
}

TEST_F(ServerFixture, CancelStopsARunningJob)
{
    cfg.executors = 1;
    cfg.tenantMaxJobs = 1;
    startServer();
    Client c = connect();

    // A big job that cancel will interrupt. The hang seam holds it
    // for 2 s after its first batch, so it cannot finish before the
    // cancel lands, however fast the host evaluates.
    fault::configure("hang-after-evals=1,hang-seconds=2");
    Json resp;
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.3, 30000, 1), resp)
            .ok());
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
    const int64_t job = resp.find("job")->asInt();

    // While it occupies the tenant's single slot, a second submit
    // from the same tenant is refused.
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.05, 50, 1), resp).ok());
    EXPECT_FALSE(resp.find("ok")->asBool());
    EXPECT_EQ(resp.find("error")->find("code")->asString(),
              "admission-rejected");

    // Cancel only once the job runs: one cancelled while still queued
    // never starts, so it would have no stats to check.
    Json status = Json::object();
    status.set("op", "status");
    status.set("job", job);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(c.request(status, resp).ok());
        if (resp.find("state")->asString() != "queued")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(resp.find("state")->asString(), "running");

    Json cancel = Json::object();
    cancel.set("op", "cancel");
    cancel.set("job", job);
    ASSERT_TRUE(c.request(cancel, resp).ok());
    EXPECT_TRUE(resp.find("ok")->asBool());

    Json wait = Json::object();
    wait.set("op", "result");
    wait.set("job", job);
    wait.set("wait", true);
    ASSERT_TRUE(c.request(wait, resp).ok());
    EXPECT_EQ(resp.find("state")->asString(), "cancelled");
    const Json* stats = resp.find("result")->find("stats");
    EXPECT_TRUE(stats->find("cancelled")->asBool());
    // Cancellation is graceful: un-evaluated points are reported as
    // skipped, evaluated ones kept.
    EXPECT_GT(stats->find("skipped")->asInt(), 0);

    // The cancelled job refunded its unevaluated charge, so the
    // tenant can submit again.
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.05, 50, 1), resp).ok());
    EXPECT_TRUE(resp.find("ok")->asBool()) << resp.render();
}

TEST_F(ServerFixture, SamplingShortfallSurfacesInResult)
{
    startServer();
    Client c = connect();
    // Tiny design, huge request: the legal space is smaller than the
    // asked-for sample count, and the result must say so.
    Json resp;
    ASSERT_TRUE(
        c.request(submitRequest("dotproduct", "t", 0.005, 5000, 1),
                  resp)
            .ok());
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
    Json wait = Json::object();
    wait.set("op", "result");
    wait.set("job", resp.find("job")->asInt());
    wait.set("wait", true);
    ASSERT_TRUE(c.request(wait, resp).ok());
    const Json* stats = resp.find("result")->find("stats");
    ASSERT_NE(stats, nullptr);
    ASSERT_LT(stats->find("sampled")->asInt(), 5000);
    EXPECT_TRUE(stats->find("shortfall")->asBool());
    EXPECT_EQ(stats->find("requested")->asInt(), 5000);
    // And as a warning diag in the result's warning stream.
    bool warned = false;
    for (const Json& w : resp.find("result")->find("warnings")->items())
        if (w.find("code")->asString() == "sampling-shortfall")
            warned = true;
    EXPECT_TRUE(warned);
}

/** /metrics must be parseable Prometheus exposition text carrying
 *  the serving series. */
TEST_F(ServerFixture, MetricsEndpointParsesBack)
{
    startServer();
    Client c = connect();
    Json resp;
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.05, 40, 1), resp).ok());
    Json wait = Json::object();
    wait.set("op", "result");
    wait.set("job", resp.find("job")->asInt());
    wait.set("wait", true);
    ASSERT_TRUE(c.request(wait, resp).ok());

    // Scrape over HTTP exactly like Prometheus would.
    const std::string body = bodyOf(httpGet(server->port(), "/metrics"));

    // Parse the exposition format back: every non-comment line is
    // "name value" with a numeric value.
    std::map<std::string, double> series;
    size_t pos = 0;
    while (pos < body.size()) {
        size_t eol = body.find('\n', pos);
        if (eol == std::string::npos)
            eol = body.size();
        const std::string line = body.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        const size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        char* end = nullptr;
        const double value =
            std::strtod(line.c_str() + sp + 1, &end);
        ASSERT_EQ(*end, '\0') << line;
        series[line.substr(0, sp)] = value;
    }
    EXPECT_EQ(series.at("dhdl_serve_jobs_done_total"), 1.0);
    EXPECT_EQ(series.at("dhdl_serve_plan_cache_misses_total"), 1.0);
    EXPECT_GE(series.at("dhdl_serve_requests_total"), 2.0);
    EXPECT_EQ(series.at("dhdl_serve_jobs_active"), 0.0);
}

TEST_F(ServerFixture, GracefulDrainRejectsNewWorkFinishesOld)
{
    startServer();
    Client c = connect();
    Json resp;
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.1, 4000, 1), resp)
            .ok());
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
    const int64_t job = resp.find("job")->asInt();

    server->requestStop();
    EXPECT_TRUE(server->draining());

    // Submissions on the existing session are refused with a
    // structured diagnostic...
    ASSERT_TRUE(
        c.request(submitRequest("gda", "t", 0.05, 50, 1), resp).ok());
    EXPECT_FALSE(resp.find("ok")->asBool());
    EXPECT_EQ(resp.find("error")->find("code")->asString(),
              "admission-rejected");

    // ...while the running job completes and its result remains
    // fetchable on the open session.
    Json wait = Json::object();
    wait.set("op", "result");
    wait.set("job", job);
    wait.set("wait", true);
    ASSERT_TRUE(c.request(wait, resp).ok());
    EXPECT_EQ(resp.find("state")->asString(), "done");

    server->wait();
    EXPECT_EQ(server->counters().done, 1u);
}

/**
 * The calibrated estimator with its MetaPipe controller model renamed
 * away: every point whose MetaPipe toggles are on fails at the area
 * stage ("uncharacterized template class"), the rest evaluate — a
 * deterministic source of failed points for a served job.
 */
const est::AreaEstimator&
estimatorWithoutMetaPipe()
{
    static const est::AreaEstimator stripped = [] {
        std::stringstream saved;
        est::calibratedEstimator().save(saved);
        std::string text = saved.str();
        const std::string cls =
            "class " +
            std::to_string(uint64_t(TemplateKind::MetaPipeCtrl) << 16) +
            "\n";
        const size_t at = text.find(cls);
        EXPECT_NE(at, std::string::npos);
        text.replace(at, cls.size(), "class 4294967295\n");
        std::istringstream in(text);
        return est::AreaEstimator(
            est::calibratedEstimator().device(), in);
    }();
    return stripped;
}

/**
 * `dhdlc submit --follow` prints what `dhdlc explore` prints: the
 * summary rendered from the server's streamed `done` result equals
 * the one rendered from a local explore of the same config, for a
 * result that has failed points, budget-skipped points and a
 * sampling shortfall (so every optional part of the summary shows).
 */
TEST_F(ServerFixture, StreamedSummaryEqualsLocalSummary)
{
    area = &estimatorWithoutMetaPipe();
    startServer();

    dse::ExploreConfig ecfg;
    ecfg.maxPoints = 5000;
    ecfg.seed = 1;
    ecfg.evalBudget = 300;
    Json req = Json::object();
    req.set("op", "submit");
    req.set("design", "dotproduct");
    req.set("scale", 0.005);
    req.set("config", configToJson(ecfg));
    req.set("stream", true);

    Client c = connect();
    Json resp;
    ASSERT_TRUE(c.request(req, resp).ok());
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
    Json ev;
    do {
        ASSERT_TRUE(c.recv(ev).ok());
    } while (ev.find("event")->asString() != "done");
    ASSERT_NE(ev.find("result"), nullptr) << ev.render();
    std::ostringstream served;
    renderSummary(*ev.find("result"), served);

    apps::LoadedDesign l = apps::loadDesign(apps::DesignSource::Name,
                                            "dotproduct", 0.005);
    ASSERT_TRUE(l.ok());
    dse::ExploreResult res =
        dse::Explorer(*area, runtimeEst()).explore(*l.graph, ecfg);
    ASSERT_GT(res.stats.failed, 0u);
    ASSERT_GT(res.stats.skipped, 0u);
    ASSERT_LT(res.stats.total, res.stats.requested);
    std::ostringstream local;
    renderSummary(resultToJson(*l.graph, res), local);

    EXPECT_EQ(served.str(), local.str());
    for (const char* part :
         {"sampling shortfall", "(eval budget)", "top failure reasons:",
          "uncharacterized template class", "note: warning"})
        EXPECT_NE(local.str().find(part), std::string::npos) << part;
}

/** The daemon loads designs by name or inline text only: a `.dhdl`
 *  path in "design" is an unknown name, even when the file exists. */
TEST_F(ServerFixture, SubmitOfAPathIsRefusedWithoutReadingIt)
{
    const std::string path =
        ::testing::TempDir() + "serve_submit_path.dhdl";
    {
        std::ofstream out(path);
        out << emitIR(apps::loadGraph("gda", 0.05));
    }
    ASSERT_TRUE(apps::loadDesign(apps::DesignSource::Path, path).ok());
    startServer();
    Client c = connect();
    Json resp;
    ASSERT_TRUE(
        c.request(submitRequest(path, "t", 1.0, 50, 1), resp).ok());
    EXPECT_FALSE(resp.find("ok")->asBool());
    EXPECT_EQ(resp.find("error")->find("code")->asString(),
              "user-error");
    EXPECT_EQ(server->counters().submitted, 0u);
    std::remove(path.c_str());
}

/** Config keys outside the codec's table (dhdlc-only settings such
 *  as a checkpoint path or a shard) are ignored, not obeyed. */
TEST_F(ServerFixture, ConfigKeysOutsideTheTableAreIgnored)
{
    const std::string ckpt = ::testing::TempDir() + "serve_ignored.ckpt";
    std::remove(ckpt.c_str());
    startServer();
    Client c = connect();
    Json req = submitRequest("gda", "t", 0.05, 60, 1);
    Json cfgJson = *req.find("config");
    cfgJson.set("checkpoint", ckpt);
    cfgJson.set("shard", "1/2");
    cfgJson.set("resume", true);
    req.set("config", cfgJson);
    req.set("stream", true);
    Json resp;
    ASSERT_TRUE(c.request(req, resp).ok());
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.render();
    Json ev;
    do {
        ASSERT_TRUE(c.recv(ev).ok());
    } while (ev.find("event")->asString() != "done");
    EXPECT_EQ(ev.find("result")->render(),
              offlineResultJson("gda", 0.05, 60, 1));
    EXPECT_FALSE(std::ifstream(ckpt).good());
}

/** A line past the cap ends the server's session; the server itself
 *  keeps serving. */
TEST_F(ServerFixture, OverlongLineClosesTheSession)
{
    startServer();
    Client c = connect();
    // The server may close before it has read every byte, so the
    // send itself is allowed to fail.
    (void)c.sendLine(std::string(kMaxLineBytes + 1, 'x'));
    std::string line;
    EXPECT_FALSE(c.recvLine(line).ok());
    Client fresh = connect();
    EXPECT_TRUE(fresh.hello().ok());
    EXPECT_EQ(server->counters().requests, 1u);
}

/**
 * The client side of the transport: a fake peer sends one
 * CRLF-terminated line, then more than the cap without a newline.
 * The client strips the '\r' like the server does and refuses the
 * overlong line with an error Status instead of buffering it all.
 */
TEST(ClientTransport, StripsCarriageReturnAndCapsLines)
{
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), len), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len);

    std::thread peer([lfd] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0)
            return;
        // Fails once the client hangs up; either way the peer ends.
        if (writeAll(fd, "{\"ok\":true}\r\n").ok())
            (void)writeAll(fd, std::string(kMaxLineBytes + 1, 'x'));
        ::close(fd);
    });

    Client c;
    ASSERT_TRUE(
        c.connect("127.0.0.1:" + std::to_string(ntohs(addr.sin_port)))
            .ok());
    std::string line;
    ASSERT_TRUE(c.recvLine(line).ok());
    EXPECT_EQ(line, "{\"ok\":true}");
    Status st = c.recvLine(line);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.diag().message.find("MiB"), std::string::npos)
        << st.diag().message;
    c.close();
    peer.join();
    ::close(lfd);
}

} // namespace
