/**
 * @file
 * The exploration workloads: sweep75k (Random strategy, 75,000
 * points requested per app, at 1 and at n threads), sweep75k_ckpt
 * (gda, checkpointed every 1000 evaluations, then resumed) and
 * surrogate (Surrogate strategy, 500 evaluations from the 75k pool).
 *
 * sweep75k measures until --seconds have passed. The other two
 * measure whole units (twenty resumes of a finished checkpoint and a
 * checkpointed explore, a repeat of both searches), as many as fit in
 * --seconds and at least one (two for surrogate, so the same-seed
 * check runs).
 *
 * Untraced repeats time Explorer::explore() as a user runs it. The
 * traced run alternates those repeats with a replay that calls each
 * layer's public entry point in the order SearchDriver::run() does,
 * one span per call, and checks that the replay reaches the same
 * Pareto front as explore().
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>

#include "cpu/thread_pool.hh"
#include "dse/checkpoint.hh"
#include "dse/strategy.hh"
#include "harness.hh"

namespace dsebench {

using namespace dhdl;
using namespace dhdl::dse;

namespace {

/** What a replayed explore produced: its points, its front, and the
 *  seconds its exploring thread spent inside the replayed layers. */
struct Replay {
    std::vector<DesignPoint> points;
    Front front;
    double covered = 0;
};

/**
 * Replay SearchDriver::run() for `cfg` layer by layer. Supports the
 * configurations these workloads use: unsharded, with or without a
 * checkpoint file, fresh or resumed, Random or Surrogate, 1 or n
 * threads. Layer totals are added to `L`.
 */
Replay
replayExplore(const Graph& g, const ExploreConfig& cfg,
              const Estimators& est, Tracer& tr, Layers& L)
{
    Replay r;
    Layers mine; // This call's own totals, for `covered`.
    DiagSink sink;
    std::optional<ParamSpace> space;
    tr.span("dse.sample_s", mine, [&] {
        space.emplace(g);
        auto bindings = sampleGlobal(*space, cfg, &sink);
        r.points.resize(bindings.size());
        for (size_t i = 0; i < bindings.size(); ++i)
            r.points[i].binding = std::move(bindings[i]);
    });
    L["dse.sample.points"] += double(r.points.size());
    L["dse.sample.shortfall"] +=
        double(std::max<int64_t>(0, cfg.maxPoints -
                                        int64_t(r.points.size())));

    CheckpointMeta meta;
    if (!cfg.checkpointPath.empty())
        tr.span("dse.ckpt.meta_s", mine, [&] {
            meta = makeCheckpointMeta(g, *space, cfg.seed,
                                      r.points.size());
            meta.strategy = strategyName(cfg.strategy);
        });
    if (cfg.resume && !cfg.checkpointPath.empty())
        tr.span("dse.ckpt.load_s", mine, [&] {
            (void)loadCheckpointFile(cfg.checkpointPath, g, meta,
                                     r.points, sink);
        });

    std::vector<size_t> pool;
    for (size_t i = 0; i < r.points.size(); ++i)
        if (!r.points[i].evaluated)
            pool.push_back(i);
    int64_t remaining = int64_t(pool.size());
    if (cfg.evalBudget > 0 && remaining > cfg.evalBudget)
        remaining = cfg.evalBudget;

    std::shared_ptr<const DesignPlan> plan;
    tr.span("analysis.plan_compile_s", mine,
            [&] { plan = Evaluator::tryCompile(g); });
    std::unique_ptr<SearchStrategy> strategy;
    tr.span("dse.strategy.propose_s", mine, [&] {
        strategy = makeStrategy(cfg, *space, plan.get(), r.points, sink);
    });

    ParetoFront front;
    tr.span("dse.pareto_s", mine, [&] {
        for (size_t i = 0; i < r.points.size(); ++i)
            if (r.points[i].evaluated && r.points[i].valid)
                front.insert(i, r.points[i].area.alms,
                             double(r.points[i].cycles));
    });

    std::unique_ptr<cpu::ThreadPool> tpool;
    if (cfg.threads > 1)
        tr.span("cpu.pool.ctor_s", mine, [&] {
            tpool = std::make_unique<cpu::ThreadPool>(cfg.threads);
        });

    const size_t bsz = size_t(std::max(1, cfg.batchSize));
    std::vector<size_t> proposed;
    // Evaluate proposed[a, b) in batches on `ev`; the first batch an
    // evaluator runs is timed with its constructor (plan binding and
    // the batched area plan are built lazily on first use).
    auto evalRange = [&](std::optional<Evaluator>& ev, int64_t a,
                         int64_t b, Layers& into) {
        for (int64_t s = a; s < b; s += int64_t(bsz)) {
            const size_t n = std::min(bsz, size_t(b - s));
            auto batch = [&] {
                if (!ev)
                    ev.emplace(est.area, est.runtime, g, plan);
                ev->evaluateBatch(r.points, &proposed[size_t(s)], n,
                                  nullptr, sink);
            };
            tr.span(ev ? "dse.eval_s" : "dse.evaluator_ctor_s", into,
                    batch);
        }
    };
    std::optional<Evaluator> serial;
    Layers workers; // Σ over pool workers (not on the exploring thread).
    std::mutex busyMu;
    double busy = 0;

    for (int round = 0; remaining > 0; ++round) {
        RoundStats rs;
        rs.round = round;
        proposed.clear();
        tr.span("dse.strategy.propose_s", mine, [&] {
            strategy->propose(round, pool, size_t(remaining), front,
                              proposed, rs);
        });
        L["ml.train_s"] += rs.trainSeconds;
        if (proposed.empty())
            break;
        L["dse.strategy.rounds"] += 1;
        for (size_t idx : proposed)
            r.points[idx].round = round;

        const int64_t n = int64_t(proposed.size());
        const int64_t slice = cfg.checkpointPath.empty()
                                  ? std::max<int64_t>(n, 1)
                                  : std::max<int64_t>(1, cfg.checkpointEvery);
        for (int64_t lo = 0; lo < n; lo += slice) {
            const int64_t hi = std::min(n, lo + slice);
            if (tpool) {
                tr.span("dse.eval_wall_s_nt", mine, [&] {
                    tpool->parallelFor(hi - lo, [&](int64_t a, int64_t b) {
                        const auto w0 = Clock::now();
                        std::optional<Evaluator> ev;
                        evalRange(ev, lo + a, lo + b, workers);
                        const double s = secondsSince(w0);
                        std::lock_guard<std::mutex> lk(busyMu);
                        busy += s;
                    });
                });
            } else {
                evalRange(serial, lo, hi, mine);
            }
            if (!cfg.checkpointPath.empty()) {
                // Outside-in split of writeCheckpointFile(): render
                // the same bytes once to time rendering, then time the
                // call; the write share is the difference.
                const auto r0 = Clock::now();
                const std::string bytes = renderCheckpoint(meta, r.points);
                const auto r1 = Clock::now();
                const bool ok =
                    writeCheckpointFile(cfg.checkpointPath, meta, r.points);
                const auto w1 = Clock::now();
                tr.record("dse.ckpt.render_s", r0, r1);
                tr.record("dse.ckpt.write_s", r1, w1);
                const double render =
                    std::chrono::duration<double>(r1 - r0).count();
                const double write =
                    std::chrono::duration<double>(w1 - r1).count();
                mine["dse.ckpt.render_s"] += render;
                mine["dse.ckpt.write_s"] += std::max(0.0, write - render);
                L["dse.ckpt.writes"] += 1;
                L["dse.ckpt.bytes"] += double(bytes.size());
                if (!ok)
                    throw std::runtime_error("checkpoint write failed");
            }
        }

        tr.span("dse.strategy.observe_s", mine, [&] {
            strategy->observe(round, r.points, proposed);
        });
        size_t evaluated = 0;
        tr.span("dse.pareto_s", mine, [&] {
            for (size_t idx : proposed) {
                const DesignPoint& p = r.points[idx];
                if (!p.evaluated)
                    continue;
                ++evaluated;
                if (p.valid) {
                    front.insert(idx, p.area.alms, double(p.cycles));
                    L["dse.pareto.inserts"] += 1;
                }
            }
            size_t w = 0;
            for (size_t idx : pool)
                if (!r.points[idx].evaluated)
                    pool[w++] = idx;
            pool.resize(w);
        });
        remaining -= int64_t(evaluated);
    }
    tr.span("dse.strategy.observe_s", mine,
            [&] { strategy->finish(sink); });

    for (const DesignPoint& p : r.points) {
        L["dse.eval.points"] += p.evaluated && !p.failed ? 1 : 0;
        L["dse.eval.failed"] += p.failed ? 1 : 0;
        L["dse.eval.valid"] += p.valid ? 1 : 0;
    }
    L["dse.pareto.front"] += double(front.size());
    r.front = frontOf(r.points, front.indices());

    // Exploring-thread layers; pool workers' evaluation time sits
    // inside dse.eval_wall_s_nt and is reported beside it.
    for (const auto& [k, v] : mine) {
        r.covered += v;
        L[k] += v;
    }
    for (const auto& [k, v] : workers)
        L[k] += v;
    L["cpu.pool.busy_s"] += busy;
    return r;
}

/** Reduce the replays of a run to one Layers: per-key medians, then
 *  the derived ratios. */
Layers
medianLayers(const std::vector<Layers>& reps, int threads,
             const std::vector<double>& covered,
             const std::vector<double>& e2e)
{
    Layers out;
    std::map<std::string, std::vector<double>> cols;
    for (const Layers& l : reps)
        for (const auto& [k, v] : l)
            cols[k].push_back(v);
    for (auto& [k, v] : cols)
        out[k] = median(v);
    const double pts = out["dse.eval.points"] + out["dse.eval.failed"];
    out["dse.eval.valid_frac"] = pts > 0 ? out["dse.eval.valid"] / pts : 0;
    const double wall = out["dse.eval_wall_s_nt"];
    out["cpu.pool.busy_frac"] =
        wall > 0 ? out["cpu.pool.busy_s"] / (double(threads) * wall) : 0;
    std::vector<double> ratio;
    for (size_t i = 0; i < covered.size() && i < e2e.size(); ++i)
        ratio.push_back(e2e[i] > 0 ? covered[i] / e2e[i] : 0);
    out["coverage"] = median(ratio);
    out["other_s"] = median(e2e) - median(covered);
    return out;
}

/** Whether one more unit of work, as long as the mean of the `done`
 *  units so far, still ends within `seconds` of `t0`. */
bool
fitsAnother(Clock::time_point t0, size_t done, double seconds)
{
    const double elapsed = secondsSince(t0);
    return elapsed + elapsed / double(done) <= seconds;
}

ExploreConfig
baseConfig(int points, uint64_t seed, int threads)
{
    ExploreConfig c;
    c.maxPoints = points;
    c.seed = seed;
    c.threads = threads;
    return c;
}

} // namespace

Outcome
runSweep(const Options& o, const Estimators& est, Tracer& tr)
{
    Outcome out;
    const int points = o.shortMode ? 3000 : 75000;
    Explorer explorer(est.area, est.runtime);

    struct App {
        std::string name;
        Graph g;
        ExploreConfig cfg;
    };
    std::vector<App> apps;
    for (size_t i = 0; i < sweepApps().size(); ++i)
        apps.push_back({sweepApps()[i], buildDesign(sweepApps()[i], 1.0),
                        baseConfig(points, mixSeed(o.seed, i), 1)});

    // One pass = one explore per app at `threads`. Adds the pass's
    // explore wall-clock and evaluated points to `wall` and `pts` and
    // leaves the results in `res`.
    auto pass = [&](int threads, double& wall, double& pts,
                    std::vector<ExploreResult>& res) {
        res.clear();
        for (App& a : apps) {
            ExploreConfig c = a.cfg;
            c.threads = threads;
            const auto e0 = Clock::now();
            res.push_back(explorer.explore(a.g, c));
            wall += secondsSince(e0);
            const ExploreResult& r = res.back();
            pts += double(r.stats.evaluated);
            ++out.attempted;
            if (r.stats.failed > 0 || r.stats.evaluated == 0)
                out.fail(a.name + ": " + std::to_string(r.stats.failed) +
                         " point(s) failed");
            else if (r.pareto != paretoOf(r.points))
                out.fail(a.name + ": front differs from paretoOf()");
        }
    };

    // 1-thread and n-thread passes alternate, so both rates are taken
    // over the whole run.
    double wall1 = 0, pts1 = 0, wallN = 0, ptsN = 0;
    std::vector<double> passWallN, covered, pairWall;
    std::vector<Layers> reps;
    std::vector<ExploreResult> r1, rN;
    const auto t0 = Clock::now();
    do {
        double w1 = 0, wN = 0;
        pass(1, w1, pts1, r1);
        pass(o.threads, wN, ptsN, rN);
        wall1 += w1;
        wallN += wN;
        passWallN.push_back(wN);
        for (size_t i = 0; i < apps.size(); ++i)
            if (frontOf(r1[i]) != frontOf(rN[i]))
                out.fail(apps[i].name + ": front at " +
                         std::to_string(o.threads) +
                         " threads differs from 1 thread");
        if (pairWall.empty())
            for (size_t i = 0; i < apps.size(); ++i) {
                out.detail["sampled." + apps[i].name] = {
                    double(r1[i].stats.total), "count"};
                out.detail["requested." + apps[i].name] = {
                    double(r1[i].stats.requested), "count"};
            }
        pairWall.push_back(w1 + wN);

        if (o.trace) {
            // Layers come from the 1-thread replay, except the pool
            // layers and the per-worker Evaluator set-up, which only
            // the n-thread replay has.
            Layers L, LN;
            double cov = 0;
            for (size_t i = 0; i < apps.size(); ++i) {
                std::optional<Graph> g;
                tr.span("core.build_s", L,
                        [&] { g.emplace(buildDesign(apps[i].name, 1.0)); });
                ExploreConfig c = apps[i].cfg;
                Replay a = replayExplore(*g, c, est, tr, L);
                c.threads = o.threads;
                Replay b = replayExplore(*g, c, est, tr, LN);
                cov += a.covered + b.covered;
                ++out.attempted;
                if (a.front != frontOf(r1[i]) || b.front != frontOf(r1[i]))
                    out.fail(apps[i].name + ": replay front differs from "
                                            "explore()");
            }
            for (const char* k : {"dse.eval_wall_s_nt", "cpu.pool.ctor_s",
                                  "cpu.pool.busy_s", "dse.evaluator_ctor_s"})
                L[k] = LN[k];
            reps.push_back(std::move(L));
            covered.push_back(cov);
        }
    } while (secondsSince(t0) < o.seconds);

    out.ptsPerSec = pts1 / wall1;
    out.opP50Ms = median(passWallN) * 1e3;
    out.detail["sweep_pts_per_s_1t"] = {out.ptsPerSec, "1/s"};
    out.detail["sweep_pts_per_s_nt"] = {ptsN / wallN, "1/s"};
    out.detail["passes"] = {double(passWallN.size()), "count"};
    if (o.trace)
        out.layers = medianLayers(reps, o.threads, covered, pairWall);
    return out;
}

/** Timed resumes from a finished checkpoint per cycle. The cycle's
 *  wall-clock (these resumes plus the checkpointed explore) is the
 *  workload's op_p50_ms; with 20 of them the resumes are about a
 *  quarter of it, so a resume that gets 2.5 times slower moves it past
 *  the bound. */
constexpr int kResumesPerCycle = 20;

std::string
fileBytes(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

Outcome
runCheckpoint(const Options& o, const Estimators& est, Tracer& tr)
{
    Outcome out;
    Explorer explorer(est.area, est.runtime);
    const Graph g = buildDesign("gda", 1.0);
    ExploreConfig cfg =
        baseConfig(o.shortMode ? 3000 : 75000, mixSeed(o.seed, 0),
                   o.threads);
    const int resumes = o.shortMode ? 2 : kResumesPerCycle;

    std::vector<double> ckptS, resumeS, afterS, rates, cycle, covered;
    std::vector<Layers> reps;
    const auto t0 = Clock::now();
    int rep = 0;
    auto fresh = [&](const std::string& path) {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
        return path;
    };
    do {
        ExploreConfig c = cfg;
        c.checkpointPath = fresh(o.tmpDir + "/ckpt-" +
                                 std::to_string(o.seed) + "-" +
                                 std::to_string(rep++) + ".csv");
        // The timed resumes run before the checkpointed explore, from
        // a finished file written up front from a plain explore and
        // checked below to hold the explore's final bytes. For about
        // 3 s after that explore, a resume runs up to half again as
        // slow as before it, whichever file it reads; timed there, the
        // median would depend on where the slow stretch ended. A
        // resume from a finished file evaluates and writes nothing.
        const std::string early = fresh(c.checkpointPath + ".early");
        const ExploreResult plain = explorer.explore(g, cfg);
        CheckpointMeta meta = makeCheckpointMeta(
            g, ParamSpace(g), c.seed, plain.points.size());
        meta.strategy = strategyName(c.strategy);
        if (!writeCheckpointFile(early, meta, plain.points))
            throw std::runtime_error("cannot write " + early);

        ExploreConfig rc = c;
        rc.resume = true;
        rc.checkpointPath = early;
        double resumeSum = 0;
        // Whether a resume restored every point of `ref` and reached
        // its front.
        auto restored = [&](const ExploreResult& r,
                            const ExploreResult& ref) {
            ++out.attempted;
            if (r.stats.resumed == ref.stats.evaluated &&
                r.pareto == ref.pareto)
                return true;
            out.fail("a resume restored a different run");
            return false;
        };
        for (int k = 0; k < resumes; ++k) {
            const auto e1 = Clock::now();
            const ExploreResult r = explorer.explore(g, rc);
            const double s = secondsSince(e1);
            resumeS.push_back(s);
            resumeSum += s;
            restored(r, plain);
        }

        const auto e0 = Clock::now();
        ExploreResult first = explorer.explore(g, c);
        const double tc = secondsSince(e0);
        ++out.attempted;
        if (first.stats.failed > 0 || first.diags.size() > 0)
            out.fail("checkpointed explore reported " +
                     std::to_string(first.diags.size()) +
                     " diagnostic(s)");
        if (first.pareto != paretoOf(first.points) ||
            first.pareto != plain.pareto)
            out.fail("checkpointed front differs from paretoOf() or "
                     "from a plain explore's");
        if (fileBytes(early) != fileBytes(c.checkpointPath))
            out.fail("finished checkpoint differs from the file the "
                     "timed resumes read");

        // One resume from the explore's own file, timed on the detail
        // line only; its bytes are compared (a render of 75k points
        // costs more than a resume, so the timed ones are not).
        rc.checkpointPath = c.checkpointPath;
        const auto e2 = Clock::now();
        const ExploreResult after = explorer.explore(g, rc);
        afterS.push_back(secondsSince(e2));
        if (restored(after, first) &&
            renderCheckpoint(meta, after.points) !=
                renderCheckpoint(meta, first.points))
            out.fail("resumed checkpoint bytes differ from the fresh "
                     "run's");
        ckptS.push_back(tc);
        cycle.push_back(tc + resumeSum);
        rates.push_back(double(first.stats.evaluated) / tc);
        std::remove(c.checkpointPath.c_str());

        if (o.trace) {
            // The same order: the resumes, then the explore.
            Layers L;
            double cov = 0;
            ExploreConfig x = rc;
            x.checkpointPath = early;
            for (int k = 0; k < resumes; ++k) {
                Replay b = replayExplore(g, x, est, tr, L);
                cov += b.covered;
                ++out.attempted;
                if (b.front != frontOf(first))
                    out.fail("replayed resume front differs from "
                             "explore()");
            }
            x = c;
            x.checkpointPath = fresh(c.checkpointPath + ".replay");
            Replay a = replayExplore(g, x, est, tr, L);
            cov += a.covered;
            ++out.attempted;
            if (a.front != frontOf(first))
                out.fail("replayed checkpoint front differs from "
                         "explore()");
            covered.push_back(cov);
            reps.push_back(std::move(L));
            std::remove(x.checkpointPath.c_str());
        }
        std::remove(early.c_str());
    } while (fitsAnother(t0, cycle.size(), o.seconds));

    out.ptsPerSec = median(rates);
    out.opP50Ms = median(cycle) * 1e3;
    out.detail["ckpt_explore_s"] = {median(ckptS), "s"};
    out.detail["resume_s"] = {median(resumeS), "s"};
    out.detail["resumes"] = {double(resumeS.size()), "count"};
    out.detail["resume_after_explore_s"] = {median(afterS), "s"};
    out.detail["cycles"] = {double(cycle.size()), "count"};
    if (o.trace)
        out.layers = medianLayers(reps, o.threads, covered, cycle);
    return out;
}

namespace {

using XY = std::pair<double, double>;

/**
 * Average distance from reference Pareto set (ADRS): for each
 * reference point, the worst relative objective gap to its closest
 * found point, averaged. Same definition as bench_dse_quality's
 * adrs(), which lives in that bench's own translation unit.
 */
double
adrs(const std::vector<XY>& ref, const std::vector<XY>& got)
{
    if (ref.empty())
        return 0;
    if (got.empty())
        return 1e30;
    double sum = 0;
    for (const XY& r : ref) {
        double best = 1e30;
        for (const XY& g : got) {
            const double dx =
                r.first > 0 ? (g.first - r.first) / r.first : 0;
            const double dy =
                r.second > 0 ? (g.second - r.second) / r.second : 0;
            best = std::min(best, std::max({dx, dy, 0.0}));
        }
        sum += best;
    }
    return sum / double(ref.size());
}

std::vector<XY>
frontXY(const ExploreResult& r)
{
    std::vector<XY> v;
    for (size_t i : r.pareto)
        v.push_back({r.points[i].area.alms, double(r.points[i].cycles)});
    return v;
}

} // namespace

Outcome
runSurrogate(const Options& o, const Estimators& est, Tracer& tr)
{
    Outcome out;
    Explorer explorer(est.area, est.runtime);
    const int points = o.shortMode ? 3000 : 75000;
    const int64_t budget = o.shortMode ? 100 : 500;

    struct App {
        std::string name;
        Graph g;
        ExploreConfig cfg;
        std::vector<XY> refFront;
        Front first;
    };
    std::vector<App> apps;
    for (const char* name : {"gda", "kmeans"}) {
        App a{name, buildDesign(name, 1.0), {}, {}, {}};
        a.cfg = baseConfig(points, mixSeed(o.seed, apps.size()), 1);
        ExploreConfig rc = a.cfg;
        rc.threads = o.threads;
        a.refFront = frontXY(explorer.explore(a.g, rc));
        a.cfg.strategy = StrategyKind::Surrogate;
        a.cfg.evalBudget = budget;
        apps.push_back(std::move(a));
    }

    std::vector<double> repWall, rates, covered, adrsV;
    std::vector<Layers> reps;
    const auto t0 = Clock::now();
    do {
        double wall = 0, pts = 0, q = 0;
        if (o.trace) {
            reps.emplace_back();
            covered.push_back(0);
        }
        for (App& a : apps) {
            const auto e0 = Clock::now();
            ExploreResult res = explorer.explore(a.g, a.cfg);
            wall += secondsSince(e0);
            pts += double(res.stats.evaluated);
            ++out.attempted;
            q += adrs(a.refFront, frontXY(res));
            if (res.stats.failed > 0 ||
                int64_t(res.stats.evaluated) != budget)
                out.fail(a.name + ": surrogate evaluated " +
                         std::to_string(res.stats.evaluated) + " of " +
                         std::to_string(budget));
            else if (res.pareto != paretoOf(res.points))
                out.fail(a.name + ": front differs from paretoOf()");
            else if (a.first.empty())
                a.first = frontOf(res);
            else if (frontOf(res) != a.first)
                out.fail(a.name + ": same-seed surrogate fronts differ "
                                  "across repeats");

            if (o.trace) {
                Replay r = replayExplore(a.g, a.cfg, est, tr, reps.back());
                covered.back() += r.covered;
                ++out.attempted;
                if (r.front != frontOf(res))
                    out.fail(a.name + ": replay front differs from "
                                      "explore()");
            }
        }
        repWall.push_back(wall);
        rates.push_back(pts / wall);
        adrsV.push_back(q / double(apps.size()));
        // At least two repeats, so the same-seed check always runs.
    } while (repWall.size() < 2 ||
             fitsAnother(t0, repWall.size(), o.seconds));

    out.ptsPerSec = median(rates);
    out.opP50Ms = median(repWall) * 1e3;
    out.detail["surrogate_explore_s"] = {median(repWall), "s"};
    out.detail["surrogate_adrs"] = {median(adrsV), "frac"};
    out.detail["repeats"] = {double(repWall.size()), "count"};
    if (o.trace) {
        out.layers = medianLayers(reps, 1, covered, repWall);
        out.layers["dse.surrogate.adrs"] = median(adrsV);
    }
    return out;
}

} // namespace dsebench
