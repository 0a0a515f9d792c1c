/**
 * @file
 * `dhdld`: the persistent DSE-as-a-service daemon. One Server owns
 *
 *  - a loopback TCP listener speaking the line-delimited JSON
 *    protocol (serve/protocol.hh), one session thread per connection
 *    (plus `GET /metrics` and `GET /trace` HTTP fast paths for
 *    scrapers);
 *  - the content-addressed DesignPlan cache (serve/plan_cache.hh),
 *    so a resubmitted design never recompiles its plan;
 *  - an admission-controlled job queue executed on the existing
 *    cpu::ThreadPool: a global queue-depth cap, a per-tenant
 *    concurrent-job cap, and a per-tenant evaluation-point budget.
 *    Every rejection is a structured AdmissionRejected Diag on the
 *    wire — backpressure is explicit, requests are never dropped;
 *  - streaming: jobs ride the search driver's round boundaries
 *    (ExploreConfig::onRound) and publish incremental Pareto-front
 *    events that submitting clients consume live.
 *
 * Shutdown is a graceful drain: requestStop() (also wired to
 * SIGTERM in tools/dhdld.cc) stops accepting connections and
 * submissions, lets running jobs finish and their final events
 * flush to streaming clients, then closes sessions. wait() returns
 * when everything is down.
 */

#ifndef DHDL_SERVE_SERVER_HH
#define DHDL_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cpu/thread_pool.hh"
#include "dse/explorer.hh"
#include "serve/plan_cache.hh"
#include "serve/protocol.hh"

namespace dhdl::serve {

struct ServerConfig {
    /** Loopback listen port (no auth on the wire, so never another
     *  address); 0 = ephemeral, Server::port() has the real one. */
    int port = 0;

    int executors = 2;  //!< Concurrent jobs (ThreadPool workers).
    int jobThreads = 1; //!< Default eval threads per job.
    size_t cacheCapacity = 32; //!< Plan cache entries (LRU).

    // Admission control.
    int maxQueue = 64;      //!< Queued-but-not-running jobs, global.
    int tenantMaxJobs = 8;  //!< Queued+running jobs per tenant.
    /** Lifetime evaluation-point budget per tenant; 0 = unlimited.
     *  Jobs are charged their requested points at admission and
     *  refunded the unevaluated remainder at completion. */
    int64_t tenantEvalBudget = 0;
    int maxPointsPerJob = 100000; //!< Per-request sample-count cap.
};

enum class JobState : uint8_t {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
};

/** Stable wire name ("queued", "running", ...). */
const char* jobStateName(JobState s);

/** Monotonic request/job totals, for /metrics and the bench. */
struct ServerCounters {
    uint64_t requests = 0;  //!< Protocol requests parsed.
    uint64_t malformed = 0; //!< Lines rejected as bad JSON/protocol.
    uint64_t submitted = 0; //!< Jobs admitted.
    uint64_t rejected = 0;  //!< Submissions refused by admission.
    uint64_t done = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
};

class Server
{
  public:
    Server(const est::AreaEstimator& area,
           const est::RuntimeEstimator& runtime,
           ServerConfig cfg = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** Bind, listen, spawn the accept loop. */
    Status start();

    /** The bound port (after start()). */
    int port() const { return port_; }

    /**
     * Begin a graceful drain: stop accepting connections and
     * submissions. Async-signal-safe (atomics + shutdown(2) only);
     * callable from a SIGTERM handler. wait() completes the drain.
     */
    void requestStop();

    /** Block until drained: jobs finished, sessions closed. */
    void wait();

    bool draining() const { return draining_.load(); }

    PlanCache::Stats cacheStats() const { return cache_.stats(); }
    ServerCounters counters() const;

    /**
     * The `/metrics` payload: the obs registry in Prometheus
     * exposition format plus the server's own cache/admission/job
     * series (always present, obs enabled or not).
     */
    std::string metricsText() const;

  private:
    struct Job;
    struct Tenant {
        int active = 0;    //!< Queued + running jobs.
        int64_t spent = 0; //!< Evaluation points charged.
    };

    void acceptLoop();
    void session(int fd);
    /** Dispatch one request line; returns the response to write, or
     *  a null Json when the response was already streamed. */
    Json dispatch(int fd, const Json& req, bool& closeAfter);

    Json handleHello();
    Json handleSubmit(int fd, const Json& req);
    Json handleStatus(const Json& req);
    Json handleResult(const Json& req);
    Json handleCancel(const Json& req);

    void runJob(std::shared_ptr<Job> j);
    std::shared_ptr<Job> findJob(const Json& req, Json* err);
    /** Stream job events to fd from `from`; returns false when the
     *  client went away. */
    bool streamEvents(int fd, const std::shared_ptr<Job>& j);
    /** Answer `GET /metrics` with metricsText() or `GET /trace` with
     *  the obs trace as one Chrome-trace document (writeChromeTrace,
     *  the `dhdlc --trace` renderer); any other path is a 404. */
    void serveHttp(int fd, const std::string& requestLine);

    const est::AreaEstimator& area_;
    const est::RuntimeEstimator& runtime_;
    ServerConfig cfg_;
    PlanCache cache_;

    std::atomic<int> listenFd_{-1};
    int port_ = 0;
    std::atomic<bool> draining_{false};
    std::thread acceptThread_;

    std::mutex sessionsMu_;
    std::vector<std::thread> sessions_;
    std::set<int> sessionFds_;

    mutable std::mutex jobsMu_;
    std::condition_variable jobsCv_;
    std::unordered_map<uint64_t, std::shared_ptr<Job>> jobs_;
    std::unordered_map<std::string, Tenant> tenants_;
    uint64_t nextJobId_ = 1;
    int queued_ = 0;     //!< Admitted, not yet running.
    int activeJobs_ = 0; //!< Queued + running (drain waits on 0).
    ServerCounters counters_;

    std::unique_ptr<cpu::ThreadPool> pool_;
};

} // namespace dhdl::serve

#endif // DHDL_SERVE_SERVER_HH
