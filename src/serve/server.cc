#include "serve/server.hh"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>

#include "apps/apps.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"

namespace dhdl::serve {

const char*
jobStateName(JobState s)
{
    switch (s) {
    case JobState::Queued:
        return "queued";
    case JobState::Running:
        return "running";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    case JobState::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

/** One admitted exploration job and its streaming event log. */
struct Server::Job {
    uint64_t id = 0;
    std::string tenant;
    std::shared_ptr<const CachedPlan> design;
    dse::ExploreConfig cfg;
    bool cacheHit = false;
    int64_t charged = 0; //!< Points charged to the tenant budget.

    JobState state = JobState::Queued;
    std::shared_ptr<std::atomic<bool>> cancel =
        std::make_shared<std::atomic<bool>>(false);
    dse::ExploreResult result; //!< Valid when Done/Cancelled.
    Diag error;                //!< Valid when Failed.
    bool finished = false;

    // Progress (guarded by Server::jobsMu_).
    size_t rounds = 0;
    size_t evaluated = 0;
    size_t frontSize = 0;

    /** Rendered event lines, appended as rounds complete; streaming
     *  sessions replay this log so no event is ever missed. */
    std::vector<std::string> events;
};

namespace {

/** resultToJson() inside one serve/render-result span. */
Json
renderResult(const Graph& g, const dse::ExploreResult& res)
{
    DHDL_OBS_SPAN("serve", "render-result");
    return resultToJson(g, res);
}

} // namespace

Server::Server(const est::AreaEstimator& area,
               const est::RuntimeEstimator& runtime, ServerConfig cfg)
    : area_(area), runtime_(runtime), cfg_(std::move(cfg)),
      cache_(cfg_.cacheCapacity)
{
    cfg_.executors = std::max(1, cfg_.executors);
    cfg_.jobThreads = std::max(1, cfg_.jobThreads);
}

Server::~Server()
{
    requestStop();
    wait();
}

Status
Server::start()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return Status::error(DiagCode::InternalError, "serve",
                             std::string("socket: ") +
                                 std::strerror(errno));
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(uint16_t(cfg_.port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(fd, 64) < 0) {
        Status st = Status::error(
            DiagCode::UserError, "serve",
            "bind/listen on port " + std::to_string(cfg_.port) + ": " +
                std::strerror(errno));
        ::close(fd);
        return st;
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = int(ntohs(addr.sin_port));

    listenFd_.store(fd);
    pool_ = std::make_unique<cpu::ThreadPool>(cfg_.executors);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return Status();
}

void
Server::requestStop()
{
    draining_.store(true);
    const int fd = listenFd_.exchange(-1);
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
    jobsCv_.notify_all();
}

void
Server::wait()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    {
        std::unique_lock<std::mutex> lk(jobsMu_);
        jobsCv_.wait(lk, [&] { return activeJobs_ == 0; });
    }
    // Jobs are drained and their final events appended; unblock any
    // idle sessions still waiting for a next request.
    {
        std::lock_guard<std::mutex> lk(sessionsMu_);
        for (int fd : sessionFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    std::vector<std::thread> sessions;
    {
        std::lock_guard<std::mutex> lk(sessionsMu_);
        sessions.swap(sessions_);
    }
    for (auto& t : sessions)
        if (t.joinable())
            t.join();
    pool_.reset();
}

void
Server::acceptLoop()
{
    obs::setThreadName("serve-accept");
    while (true) {
        const int lfd = listenFd_.load();
        if (lfd < 0)
            break;
        int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (draining_.load())
                break;
            continue;
        }
        if (draining_.load()) {
            ::close(fd);
            break;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        std::lock_guard<std::mutex> lk(sessionsMu_);
        sessionFds_.insert(fd);
        sessions_.emplace_back([this, fd] { session(fd); });
    }
    const int lfd = listenFd_.exchange(-1);
    if (lfd >= 0)
        ::close(lfd);
}

void
Server::session(int fd)
{
    obs::setThreadName("serve-session");
    std::string buf;
    while (true) {
        std::string line;
        if (!readLine(fd, buf, line).ok())
            break;
        if (line.rfind("GET ", 0) == 0) {
            serveHttp(fd, line);
            break;
        }
        if (line.empty())
            continue;

        Json req;
        Json resp;
        bool closeAfter = false;
        Status st;
        {
            DHDL_OBS_SPAN("serve", "parse");
            st = parseJson(line, req);
        }
        if (!st.ok() || !req.isObject()) {
            std::lock_guard<std::mutex> lk(jobsMu_);
            ++counters_.requests;
            ++counters_.malformed;
            resp = st.ok() ? errorResponse(
                                 DiagCode::ParseError,
                                 "request must be a JSON object")
                           : errorResponse(st.diag());
        } else {
            resp = dispatch(fd, req, closeAfter);
        }
        if (!resp.isNull() && !writeLine(fd, resp.render()).ok())
            break;
        if (closeAfter)
            break;
    }
    ::close(fd);
    std::lock_guard<std::mutex> lk(sessionsMu_);
    sessionFds_.erase(fd);
}

void
Server::serveHttp(int fd, const std::string& requestLine)
{
    const char* status = "200 OK";
    const char* type = "text/plain; version=0.0.4; charset=utf-8";
    std::ostringstream body;
    if (requestLine.rfind("GET /metrics", 0) == 0) {
        body << metricsText();
    } else if (requestLine.rfind("GET /trace", 0) == 0) {
        type = "application/json";
        writeChromeTrace(body, obs::snapshotTrace());
    } else {
        status = "404 Not Found";
        body << "not found\n";
    }
    const std::string text = std::move(body).str();
    const std::string headers =
        std::string("HTTP/1.0 ") + status + "\r\nContent-Type: " + type +
        "\r\nContent-Length: " + std::to_string(text.size()) +
        "\r\nConnection: close\r\n\r\n";
    if (writeAll(fd, headers).ok())
        writeAll(fd, text);
}

Json
Server::dispatch(int fd, const Json& req, bool& closeAfter)
{
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        ++counters_.requests;
    }
    // Any request may carry the handshake field; skew is an explicit
    // structured error, never a silent misparse.
    if (const Json* proto = req.find("proto");
        proto && proto->asInt() != kProtocolVersion) {
        return errorResponse(
            DiagCode::VersionMismatch,
            "client speaks protocol " +
                std::to_string(proto->asInt()) +
                ", server speaks " +
                std::to_string(kProtocolVersion) + " (dhdld " +
                versionString() + ")");
    }
    const Json* op = req.find("op");
    if (!op || !op->isString()) {
        std::lock_guard<std::mutex> lk(jobsMu_);
        ++counters_.malformed;
        return errorResponse(DiagCode::ParseError,
                             "request has no \"op\"");
    }
    const std::string& name = op->asString();
    if (name == "hello")
        return handleHello();
    if (name == "submit")
        return handleSubmit(fd, req);
    if (name == "status")
        return handleStatus(req);
    if (name == "result")
        return handleResult(req);
    if (name == "cancel")
        return handleCancel(req);
    if (name == "shutdown") {
        requestStop();
        closeAfter = true;
        Json j = Json::object();
        j.set("ok", true);
        j.set("draining", true);
        return j;
    }
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        ++counters_.malformed;
    }
    return errorResponse(DiagCode::ParseError,
                         "unknown op \"" + name + "\"");
}

Json
Server::handleHello()
{
    // Protocol skew was already rejected in dispatch().
    Json j = Json::object();
    j.set("ok", true);
    j.set("proto", kProtocolVersion);
    j.set("version", versionString());
    return j;
}

std::shared_ptr<Server::Job>
Server::findJob(const Json& req, Json* err)
{
    const Json* id = req.find("job");
    if (!id || !id->isNumber()) {
        *err = errorResponse(DiagCode::ParseError,
                             "request has no \"job\" id");
        return nullptr;
    }
    std::lock_guard<std::mutex> lk(jobsMu_);
    auto it = jobs_.find(uint64_t(id->asInt()));
    if (it == jobs_.end()) {
        *err = errorResponse(DiagCode::UserError,
                             "unknown job " +
                                 std::to_string(id->asInt()));
        return nullptr;
    }
    return it->second;
}

Json
Server::handleSubmit(int fd, const Json& req)
{
    // Admission, design load and plan-cache acquire; ends before any
    // event is streamed.
    std::optional<obs::TraceSpan> span(std::in_place, "serve", "submit");
    std::string tenant = "anonymous";
    if (const Json* t = req.find("tenant");
        t && t->isString() && !t->asString().empty())
        tenant = t->asString();

    // Explore configuration from the request, server-side caps
    // applied. Unknown strategy names and out-of-range sizes are
    // user errors, not crashes; unknown keys are ignored.
    dse::ExploreConfig ecfg;
    ecfg.threads = cfg_.jobThreads;
    if (const Json* c = req.find("config"); c && c->isObject()) {
        if (Status st = configFromJson(*c, ecfg); !st.ok())
            return errorResponse(st.diag());
        if (c->find("threads"))
            ecfg.threads = std::clamp(ecfg.threads, 1, 16);
    }
    if (ecfg.maxPoints <= 0 || ecfg.maxPoints > cfg_.maxPointsPerJob)
        return errorResponse(
            DiagCode::AdmissionRejected,
            "points must be in [1, " +
                std::to_string(cfg_.maxPointsPerJob) + "], got " +
                std::to_string(ecfg.maxPoints),
            "admission");

    // Reserve capacity under the lock; roll back if the design turns
    // out to be unloadable. All three refusals are structured
    // backpressure: the client is told exactly which limit it hit.
    const int64_t charge = ecfg.maxPoints;
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        auto reject = [&](std::string why) {
            ++counters_.rejected;
            return errorResponse(DiagCode::AdmissionRejected,
                                 std::move(why), "admission");
        };
        if (draining_.load())
            return reject("server is draining; not accepting jobs");
        if (queued_ >= cfg_.maxQueue)
            return reject("job queue full (" +
                          std::to_string(queued_) +
                          " queued); retry later");
        Tenant& t = tenants_[tenant];
        if (t.active >= cfg_.tenantMaxJobs)
            return reject("tenant \"" + tenant + "\" already has " +
                          std::to_string(t.active) +
                          " active job(s) (limit " +
                          std::to_string(cfg_.tenantMaxJobs) + ")");
        if (cfg_.tenantEvalBudget > 0 &&
            t.spent + charge > cfg_.tenantEvalBudget)
            return reject(
                "tenant \"" + tenant + "\" evaluation budget " +
                "exhausted: " + std::to_string(t.spent) + " spent + " +
                std::to_string(charge) + " requested > " +
                std::to_string(cfg_.tenantEvalBudget));
        t.active += 1;
        t.spent += charge;
        queued_ += 1;
        activeJobs_ += 1;
    }
    auto rollback = [&] {
        std::lock_guard<std::mutex> lk(jobsMu_);
        Tenant& t = tenants_[tenant];
        t.active -= 1;
        t.spent -= charge;
        queued_ -= 1;
        activeJobs_ -= 1;
        jobsCv_.notify_all();
    };

    // Load the design: inline `.dhdl` text or a registry name, never
    // a path. The standard pass pipeline runs on every load (exactly
    // like dhdlc), so the cache keys canonical post-pass IR.
    const Json* ir = req.find("ir");
    const Json* name = req.find("design");
    if (!(ir && ir->isString()) && !(name && name->isString())) {
        rollback();
        return errorResponse(DiagCode::ParseError,
                             "submit needs \"design\" or \"ir\"");
    }
    const Json* scale = req.find("scale");
    apps::LoadedDesign loaded =
        ir && ir->isString()
            ? apps::loadDesign(apps::DesignSource::IRText,
                               ir->asString())
            : apps::loadDesign(apps::DesignSource::Name,
                               name->asString(),
                               scale ? scale->asDouble(1.0) : 1.0);
    if (!loaded.ok()) {
        rollback();
        return errorResponse(loaded.status.diag());
    }

    bool hit = false;
    auto design = cache_.acquire(std::move(*loaded.graph), &hit);

    auto job = std::make_shared<Job>();
    job->tenant = tenant;
    job->design = design;
    job->cfg = ecfg;
    job->cacheHit = hit;
    job->charged = charge;
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        job->id = nextJobId_++;
        jobs_[job->id] = job;
        ++counters_.submitted;
    }
    pool_->submit([this, job] { runJob(job); });
    span.reset();

    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("job", job->id);
    resp.set("cached", hit);
    resp.set("version", versionString());
    resp.set("proto", kProtocolVersion);

    const Json* stream = req.find("stream");
    if (stream && stream->asBool()) {
        if (!writeLine(fd, resp.render()).ok())
            return Json();
        streamEvents(fd, job);
        return Json(); // Everything already written.
    }
    return resp;
}

void
Server::runJob(std::shared_ptr<Job> j)
{
    static const obs::Histogram hJobUs(
        "serve.job.us",
        {1000, 10000, 100000, 1000000, 10000000, 100000000});

    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        queued_ -= 1;
        if (j->cancel->load()) {
            j->state = JobState::Cancelled;
        } else {
            j->state = JobState::Running;
        }
    }
    if (j->state == JobState::Running) {
        const auto t0 = std::chrono::steady_clock::now();
        dse::ExploreConfig cfg = j->cfg;
        cfg.plan = j->design->plan;
        cfg.cancel = j->cancel;
        cfg.onRound = [this, j](const dse::RoundStats& rs,
                                const dse::ParetoFront& front,
                                const std::vector<dse::DesignPoint>&
                                    pts) {
            Json ev = Json::object();
            ev.set("event", "round");
            ev.set("job", j->id);
            ev.set("round", rs.round);
            ev.set("evaluated", rs.evaluated);
            ev.set("front_size", front.size());
            ev.set("front",
                   frontToJson(j->design->graph, pts, front.indices()));
            std::lock_guard<std::mutex> lk(jobsMu_);
            j->rounds = size_t(rs.round) + 1;
            j->evaluated += rs.evaluated;
            j->frontSize = front.size();
            j->events.push_back(ev.render());
            jobsCv_.notify_all();
        };
        dse::Explorer ex(area_, runtime_);
        try {
            dse::ExploreResult res =
                ex.explore(j->design->graph, cfg);
            std::lock_guard<std::mutex> lk(jobsMu_);
            j->result = std::move(res);
            j->state = j->result.stats.cancelled
                           ? JobState::Cancelled
                           : JobState::Done;
        } catch (...) {
            Diag d = diagFromCurrentException("serve");
            std::lock_guard<std::mutex> lk(jobsMu_);
            j->error = std::move(d);
            j->state = JobState::Failed;
        }
        hJobUs.observe(uint64_t(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    }

    std::lock_guard<std::mutex> lk(jobsMu_);
    Json ev = Json::object();
    ev.set("event", "done");
    ev.set("job", j->id);
    ev.set("state", jobStateName(j->state));
    ev.set("cached", j->cacheHit);
    switch (j->state) {
    case JobState::Done:
        ++counters_.done;
        ev.set("result", renderResult(j->design->graph, j->result));
        break;
    case JobState::Cancelled:
        ++counters_.cancelled;
        ev.set("result", renderResult(j->design->graph, j->result));
        break;
    default:
        ++counters_.failed;
        ev.set("error", diagToJson(j->error));
        break;
    }
    j->events.push_back(ev.render());
    j->finished = true;

    // Refund the unevaluated remainder of the admission charge so a
    // cancelled or budget-cut job doesn't burn its tenant's budget.
    Tenant& t = tenants_[j->tenant];
    t.active -= 1;
    const int64_t used = int64_t(j->result.stats.evaluated);
    t.spent -= std::max<int64_t>(0, j->charged - used);
    activeJobs_ -= 1;
    jobsCv_.notify_all();
}

bool
Server::streamEvents(int fd, const std::shared_ptr<Job>& j)
{
    size_t sent = 0;
    std::unique_lock<std::mutex> lk(jobsMu_);
    while (true) {
        jobsCv_.wait(lk, [&] {
            return j->events.size() > sent || j->finished;
        });
        while (sent < j->events.size()) {
            std::string line = j->events[sent++];
            lk.unlock();
            if (!writeLine(fd, line).ok())
                return false; // Client gone; the job runs on.
            lk.lock();
        }
        if (j->finished && sent >= j->events.size())
            return true;
    }
}

Json
Server::handleStatus(const Json& req)
{
    Json err;
    auto j = findJob(req, &err);
    if (!j)
        return err;
    std::lock_guard<std::mutex> lk(jobsMu_);
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("job", j->id);
    resp.set("state", jobStateName(j->state));
    resp.set("cached", j->cacheHit);
    resp.set("rounds", j->rounds);
    resp.set("evaluated", j->evaluated);
    resp.set("front_size", j->frontSize);
    return resp;
}

Json
Server::handleResult(const Json& req)
{
    Json err;
    auto j = findJob(req, &err);
    if (!j)
        return err;
    const Json* wait = req.find("wait");
    std::unique_lock<std::mutex> lk(jobsMu_);
    if (wait && wait->asBool())
        jobsCv_.wait(lk, [&] { return j->finished; });
    Json resp = Json::object();
    if (j->state == JobState::Failed) {
        resp.set("ok", false);
        resp.set("job", j->id);
        resp.set("state", jobStateName(j->state));
        resp.set("error", diagToJson(j->error));
        return resp;
    }
    resp.set("ok", true);
    resp.set("job", j->id);
    resp.set("state", jobStateName(j->state));
    resp.set("cached", j->cacheHit);
    if (j->finished)
        resp.set("result", renderResult(j->design->graph, j->result));
    return resp;
}

Json
Server::handleCancel(const Json& req)
{
    Json err;
    auto j = findJob(req, &err);
    if (!j)
        return err;
    j->cancel->store(true);
    std::lock_guard<std::mutex> lk(jobsMu_);
    Json resp = Json::object();
    resp.set("ok", true);
    resp.set("job", j->id);
    resp.set("state", jobStateName(j->state));
    resp.set("cancelling", !j->finished);
    return resp;
}

ServerCounters
Server::counters() const
{
    std::lock_guard<std::mutex> lk(jobsMu_);
    return counters_;
}

std::string
Server::metricsText() const
{
    std::ostringstream os;
    obs::snapshotMetrics().renderProm(os);
    // The server's own per-instance series: the serving job and plan
    // cache counts live here, not in the obs registry.
    const PlanCache::Stats cs = cache_.stats();
    ServerCounters c;
    int queued = 0;
    int active = 0;
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        c = counters_;
        queued = queued_;
        active = activeJobs_;
    }
    auto counter = [&](const char* name, uint64_t v) {
        os << "# TYPE " << name << " counter\n"
           << name << " " << v << "\n";
    };
    auto gauge = [&](const char* name, int64_t v) {
        os << "# TYPE " << name << " gauge\n"
           << name << " " << v << "\n";
    };
    counter("dhdl_serve_requests_total", c.requests);
    counter("dhdl_serve_requests_malformed_total", c.malformed);
    counter("dhdl_serve_jobs_submitted_total", c.submitted);
    counter("dhdl_serve_jobs_rejected_total", c.rejected);
    counter("dhdl_serve_jobs_done_total", c.done);
    counter("dhdl_serve_jobs_failed_total", c.failed);
    counter("dhdl_serve_jobs_cancelled_total", c.cancelled);
    counter("dhdl_serve_plan_cache_hits_total", cs.hits);
    counter("dhdl_serve_plan_cache_misses_total", cs.misses);
    counter("dhdl_serve_plan_cache_evictions_total", cs.evictions);
    gauge("dhdl_serve_plan_cache_entries", int64_t(cs.size));
    gauge("dhdl_serve_jobs_queued", queued);
    gauge("dhdl_serve_jobs_active", active);
    return os.str();
}

} // namespace dhdl::serve
