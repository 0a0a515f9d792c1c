#include "dse/supervisor.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ml/rng.hh"
#include "obs/metrics.hh"

namespace dhdl::dse {

namespace {

using Clock = std::chrono::steady_clock;

/** Per-task bookkeeping for the poll loop. */
struct TaskState {
    enum class Phase { Waiting, Running, Done } phase = Phase::Waiting;
    Clock::time_point notBefore{}; //!< Earliest next launch (backoff).
    Clock::time_point deadline{};  //!< Watchdog cutoff of the attempt.
    pid_t pid = -1;
    int failures = 0; //!< Failed attempts so far.
    bool killed = false; //!< Watchdog SIGKILL sent this attempt.
};

pid_t
spawn(const SupervisorTask& t)
{
    const pid_t pid = fork();
    if (pid < 0)
        return -1;
    if (pid > 0) {
        // Both sides setpgid so the group exists before either the
        // child execs or the watchdog kills — whoever runs first.
        setpgid(pid, pid);
        return pid;
    }

    // Child: own process group so a watchdog kill takes any
    // grandchildren down with it.
    setpgid(0, 0);
    for (const auto& [name, value] : t.env)
        setenv(name.c_str(), value.c_str(), 1);
    if (!t.logPath.empty()) {
        const int fd = open(t.logPath.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            dup2(fd, STDOUT_FILENO);
            dup2(fd, STDERR_FILENO);
            if (fd > STDERR_FILENO)
                close(fd);
        }
    }
    std::vector<char*> argv;
    argv.reserve(t.argv.size() + 1);
    for (const std::string& a : t.argv)
        argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execvp(argv[0], argv.data());
    _exit(127);
}

} // namespace

bool
SupervisorResult::allSucceeded() const
{
    return std::all_of(tasks.begin(), tasks.end(),
                       [](const TaskOutcome& t) { return t.succeeded; });
}

std::vector<int>
SupervisorResult::failedTasks() const
{
    std::vector<int> out;
    for (size_t i = 0; i < tasks.size(); ++i) {
        if (!tasks[i].succeeded)
            out.push_back(int(i));
    }
    return out;
}

double
backoffSeconds(const SupervisorConfig& cfg, int task, int attempt)
{
    double d = cfg.backoffBaseSeconds * std::pow(2.0, attempt);
    d = std::min(d, cfg.backoffMaxSeconds);
    // Deterministic jitter in [0, 25%): retrying shards de-correlate
    // without introducing wall-clock nondeterminism into tests.
    const uint64_t h = ml::hashMix(
        ml::hashMix(cfg.jitterSeed ^ (uint64_t(task) + 1)) ^
        (uint64_t(attempt) + 1));
    return d * (1.0 + 0.25 * (double(h & 0x3FF) / 1024.0));
}

SupervisorResult
runSupervised(const std::vector<SupervisorTask>& tasks,
              const SupervisorConfig& cfg)
{
    for (const SupervisorTask& t : tasks)
        require(!t.argv.empty(), "supervisor task needs an argv");

    SupervisorResult res;
    res.tasks.resize(tasks.size());
    std::vector<TaskState> st(tasks.size());
    const auto now0 = Clock::now();
    for (TaskState& s : st)
        s.notBefore = now0;

    auto toDuration = [](double seconds) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
    };
    auto label = [&](size_t i) {
        return tasks[i].label.empty() ? "task " + std::to_string(i)
                                      : tasks[i].label;
    };

    size_t running = 0;
    size_t done = 0;
    const size_t cap = cfg.maxParallel > 0 ? size_t(cfg.maxParallel)
                                           : tasks.size();

    // One attempt has settled (child reaped or spawn failed): decide
    // between success, a backed-off retry, and permanent failure.
    auto settle = [&](size_t i, bool ok, int exitCode, int sig,
                      const std::string& how) {
        TaskState& s = st[i];
        TaskOutcome& o = res.tasks[i];
        o.exitCode = exitCode;
        o.termSignal = sig;
        o.timedOut = s.killed;
        if (ok) {
            o.succeeded = true;
            o.detail = label(i) + " succeeded after " +
                       std::to_string(o.attempts) + " attempt(s)";
            if (o.attempts > 1)
                obs::addCounter("dse.supervisor.recoveries", 1);
            s.phase = TaskState::Phase::Done;
            ++done;
            return;
        }
        ++s.failures;
        if (s.failures <= cfg.maxRetries) {
            const double wait =
                backoffSeconds(cfg, int(i), s.failures - 1);
            s.notBefore = Clock::now() + toDuration(wait);
            s.phase = TaskState::Phase::Waiting;
            ++res.retries;
            obs::addCounter("dse.supervisor.retries", 1);
            return;
        }
        o.detail = label(i) + " failed permanently (" + how +
                   ") after " + std::to_string(o.attempts) +
                   " attempt(s)";
        res.diags.push_back(
            Diag::warning(DiagCode::ShardFailed, "supervise", o.detail));
        obs::addCounter("dse.supervisor.failures", 1);
        s.phase = TaskState::Phase::Done;
        ++done;
    };

    while (done < tasks.size()) {
        const auto now = Clock::now();

        // Launch whatever is due, up to the parallelism cap.
        for (size_t i = 0; i < tasks.size() && running < cap; ++i) {
            TaskState& s = st[i];
            if (s.phase != TaskState::Phase::Waiting ||
                now < s.notBefore)
                continue;
            s.pid = spawn(tasks[i]);
            ++res.tasks[i].attempts;
            if (s.pid < 0) {
                settle(i, false, -1, 0, "fork failed");
                continue;
            }
            s.killed = false;
            s.deadline = cfg.timeoutSeconds > 0
                             ? now + toDuration(cfg.timeoutSeconds)
                             : Clock::time_point::max();
            s.phase = TaskState::Phase::Running;
            ++running;
            obs::addCounter("dse.supervisor.launches", 1);
        }

        // Reap exits and enforce watchdogs.
        for (size_t i = 0; i < tasks.size(); ++i) {
            TaskState& s = st[i];
            if (s.phase != TaskState::Phase::Running)
                continue;
            int status = 0;
            const pid_t r = waitpid(s.pid, &status, WNOHANG);
            if (r == s.pid) {
                --running;
                if (WIFEXITED(status)) {
                    const int code = WEXITSTATUS(status);
                    settle(i, code == 0, code, 0,
                           s.killed ? "watchdog timeout"
                                    : "exit " + std::to_string(code));
                } else {
                    const int sig =
                        WIFSIGNALED(status) ? WTERMSIG(status) : 0;
                    settle(i, false, -1, sig,
                           s.killed
                               ? "watchdog timeout"
                               : "killed by signal " +
                                     std::to_string(sig));
                }
                continue;
            }
            if (!s.killed && Clock::now() >= s.deadline) {
                // Hung attempt: kill the whole process group, then
                // let the next sweep reap it as a normal failure.
                s.killed = true;
                ++res.timeouts;
                obs::addCounter("dse.supervisor.timeouts", 1);
                if (kill(-s.pid, SIGKILL) != 0)
                    kill(s.pid, SIGKILL);
            }
        }

        if (done < tasks.size())
            std::this_thread::sleep_for(
                toDuration(cfg.pollIntervalSeconds));
    }
    return res;
}

} // namespace dhdl::dse
