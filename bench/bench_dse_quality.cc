/**
 * @file
 * Search-quality tracker: evaluations-to-front of the surrogate
 * strategy against the random sweep, per benchmark app. Emits
 * BENCH_dse_quality.json so the sample-efficiency of the guided
 * search is tracked alongside raw evaluation throughput.
 *
 * Method, per app:
 *
 *  1. One full random sweep evaluates the whole sample set; its
 *     Pareto front is the *reference front* for this (design, seed).
 *  2. Random baseline: random search with budget N evaluates exactly
 *     the first N points of the sample set, so its front after N
 *     evals is the front of the prefix — no re-evaluation needed.
 *     The ADRS of the prefix front is monotone non-increasing in N,
 *     so a binary search finds the smallest N within tolerance.
 *  3. Surrogate run: same design, same seed, same sample set. The
 *     front after round r is the front over points with round <= r;
 *     evals spent is the cumulative per-round evaluation count. The
 *     first round within tolerance sets the surrogate's cost.
 *
 * Distance is ADRS (average distance to reference set): for each
 * reference-front point, the smallest worst-axis relative gap to any
 * achieved point, averaged — 0 when the achieved front covers the
 * reference everywhere within rounding.
 *
 * Knobs (the dataset scale is bench::kBenchScale):
 *   DHDL_QUALITY_POINTS points sampled per app (default 2000)
 *   DHDL_QUALITY_TOL    ADRS tolerance (default 0.02)
 *   DHDL_QUALITY_APPS   comma list to restrict apps (default: all 8)
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "dse/pareto.hh"
#include "serve/json.hh"

using namespace dhdl;

namespace {

using XY = std::pair<double, double>;

int
qualityPoints()
{
    return int(bench::envInt("DHDL_QUALITY_POINTS", 2000));
}

double
qualityTol()
{
    return bench::envDouble("DHDL_QUALITY_TOL", 0.02);
}

/** The (alms, cycles) front over a bag of objective pairs. */
std::vector<XY>
frontOf(const std::vector<XY>& pts)
{
    std::vector<double> xs, ys;
    for (const auto& [x, y] : pts) {
        xs.push_back(x);
        ys.push_back(y);
    }
    auto idx = dse::paretoFront(xs, ys);
    std::vector<XY> out;
    out.reserve(idx.size());
    for (size_t i : idx)
        out.push_back(pts[i]);
    return out;
}

/**
 * Average distance to the reference set. Per reference point, the
 * best achievable worst-axis relative gap over the achieved front;
 * averaged over the reference front. 0 = reference reached.
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
            const double dy = r.second > 0
                                  ? (g.second - r.second) / r.second
                                  : 0;
            best = std::min(best, std::max({dx, dy, 0.0}));
        }
        sum += best;
    }
    return sum / double(ref.size());
}

struct Row {
    std::string app;
    size_t sampled = 0;
    size_t refFront = 0;
    double tol = 0;
    size_t randomEvals = 0;    //!< Prefix length reaching tolerance.
    size_t surrogateEvals = 0; //!< Cumulative evals reaching it.
    int surrogateRounds = 0;   //!< Rounds spent to get there.
    bool reached = false;      //!< Surrogate got within tolerance.
    double speedup = 0;        //!< randomEvals / surrogateEvals.
    std::vector<double> seedSpeedups; //!< One entry per seed tried.
};

Row
measureApp(const std::string& name, double scale, int points,
           double tol, uint64_t seed)
{
    Design d = apps::buildApp(name, scale);

    // 1. Reference: the full random sweep.
    dse::ExploreConfig cfg;
    cfg.maxPoints = points;
    cfg.seed = seed;
    auto ref = bench::explorer().explore(d.graph(), cfg);
    std::vector<XY> refFront;
    for (size_t i : ref.pareto)
        refFront.push_back(
            {ref.points[i].area.alms, double(ref.points[i].cycles)});

    Row r;
    r.app = name;
    r.sampled = ref.stats.total;
    r.refFront = refFront.size();
    r.tol = tol;

    // 2. Random baseline: smallest prefix within tolerance. The
    //    prefix front only improves with N, so ADRS is monotone and
    //    the threshold is binary-searchable.
    auto prefixAdrs = [&](size_t n) {
        std::vector<XY> pts;
        for (size_t i = 0; i < n && i < ref.points.size(); ++i)
            if (ref.points[i].valid)
                pts.push_back({ref.points[i].area.alms,
                               double(ref.points[i].cycles)});
        return adrs(refFront, frontOf(pts));
    };
    auto randomAt = [&](double t) {
        size_t lo = 1, hi = ref.points.size();
        while (lo < hi) {
            const size_t mid = lo + (hi - lo) / 2;
            if (prefixAdrs(mid) <= t)
                hi = mid;
            else
                lo = mid + 1;
        }
        return lo;
    };
    r.randomEvals = randomAt(tol);

    // 3. Surrogate: same seed and sample set, guided rounds.
    auto scfg = cfg;
    scfg.strategy = dse::StrategyKind::Surrogate;
    auto sur = bench::explorer().explore(d.graph(), scfg);

    // The surrogate's evaluation sequence: rounds in order, ranked
    // proposal order within each round. Its prefix ADRS is monotone
    // for the same reason the random prefix is, so the same binary
    // search applies — both baselines are measured at
    // single-evaluation granularity.
    std::vector<size_t> order;
    for (const dse::RoundStats& rs : sur.stats.rounds)
        order.insert(order.end(), rs.evalOrder.begin(),
                     rs.evalOrder.end());
    auto surPrefixAdrs = [&](size_t n) {
        std::vector<XY> pts;
        for (size_t k = 0; k < n && k < order.size(); ++k) {
            const dse::DesignPoint& p = sur.points[order[k]];
            if (p.valid)
                pts.push_back({p.area.alms, double(p.cycles)});
        }
        return adrs(refFront, frontOf(pts));
    };
    auto surrogateAt = [&](double t, bool* ok) {
        if (order.empty() || surPrefixAdrs(order.size()) > t) {
            *ok = false;
            return order.size();
        }
        *ok = true;
        size_t slo = 1, shi = order.size();
        while (slo < shi) {
            const size_t mid = slo + (shi - slo) / 2;
            if (surPrefixAdrs(mid) <= t)
                shi = mid;
            else
                slo = mid + 1;
        }
        return slo;
    };
    r.surrogateEvals = surrogateAt(tol, &r.reached);
    {
        size_t seen = 0;
        for (const dse::RoundStats& rs : sur.stats.rounds) {
            seen += rs.evalOrder.size();
            ++r.surrogateRounds;
            if (r.reached && seen >= r.surrogateEvals)
                break;
        }
    }
    r.speedup = r.surrogateEvals
                    ? double(r.randomEvals) / double(r.surrogateEvals)
                    : 0;
    return r;
}

void
writeReport(const std::vector<Row>& rows, double scale, int points)
{
    serve::Json apps = serve::Json::array();
    for (const Row& r : rows) {
        serve::Json seeds = serve::Json::array();
        for (double sp : r.seedSpeedups)
            seeds.push(sp);
        serve::Json a = serve::Json::object();
        a.set("app", r.app);
        a.set("sampled", r.sampled);
        a.set("ref_front", r.refFront);
        a.set("tol", r.tol);
        a.set("random_evals", r.randomEvals);
        a.set("surrogate_evals", r.surrogateEvals);
        a.set("surrogate_rounds", r.surrogateRounds);
        a.set("reached", r.reached);
        a.set("speedup", r.speedup);
        a.set("seed_speedups", std::move(seeds));
        apps.push(std::move(a));
    }
    serve::Json j = serve::Json::object();
    j.set("bench", "dse_quality");
    j.set("scale", scale);
    j.set("points_per_app", points);
    j.set("apps", std::move(apps));
    std::ofstream("BENCH_dse_quality.json") << j.render() << "\n";
}

std::vector<std::string>
appNames()
{
    std::vector<std::string> names;
    if (const char* env = std::getenv("DHDL_QUALITY_APPS")) {
        std::stringstream ss(env);
        std::string tok;
        while (std::getline(ss, tok, ','))
            if (!tok.empty())
                names.push_back(tok);
        return names;
    }
    for (const auto& app : apps::allApps())
        names.push_back(app.name);
    names.push_back("conv2d");
    return names;
}

} // namespace

int
main()
{
    const double scale = bench::kBenchScale;
    const int points = qualityPoints();
    const double tol = qualityTol();

    std::cout << "DSE search quality (scale=" << scale << ", up to "
              << points << " points/app, ADRS tol=" << tol << ")\n\n";
    (void)est::calibratedEstimator();

    std::cout << std::left << std::setw(14) << "Benchmark"
              << std::right << std::setw(9) << "sampled"
              << std::setw(7) << "front" << std::setw(10) << "random"
              << std::setw(11) << "surrogate" << std::setw(8)
              << "rounds" << std::setw(9) << "speedup" << "\n";
    bench::rule(68);

    // Evals-to-front is a tail statistic (the last uncovered front
    // point dominates), so a single seed is noisy. Measure three
    // seeds per app and report the median-speedup run.
    const uint64_t seeds[3] = {0xD5Eull, 0x1D5Eull, 0x2D5Eull};

    std::vector<Row> rows;
    for (const std::string& name : appNames()) {
        std::vector<Row> trials;
        std::vector<double> sp;
        for (uint64_t s : seeds) {
            trials.push_back(measureApp(name, scale, points, tol, s));
            sp.push_back(trials.back().speedup);
        }
        std::sort(trials.begin(), trials.end(),
                  [](const Row& a, const Row& b) {
                      return a.speedup < b.speedup;
                  });
        Row r = trials[1];
        r.seedSpeedups = sp;
        rows.push_back(r);
        std::cout << std::left << std::setw(14) << r.app << std::right
                  << std::setw(9) << r.sampled << std::setw(7)
                  << r.refFront << std::setw(10) << r.randomEvals
                  << std::setw(11) << r.surrogateEvals << std::setw(8)
                  << r.surrogateRounds << std::setw(9)
                  << bench::fmt(r.speedup, 1)
                  << (r.reached ? "" : "  (tolerance not reached)")
                  << "\n";
    }
    writeReport(rows, scale, points);
    std::cout << "\nwrote BENCH_dse_quality.json\n";
    return 0;
}
