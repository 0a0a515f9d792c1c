#include "bench_common.hh"

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace dhdl::bench {

double
envDouble(const char* name, double def)
{
    const char* v = std::getenv(name);
    return v ? std::atof(v) : def;
}

int64_t
envInt(const char* name, int64_t def)
{
    const char* v = std::getenv(name);
    return v ? std::atoll(v) : def;
}

const est::RuntimeEstimator&
runtimeEstimator()
{
    static est::RuntimeEstimator rt;
    return rt;
}

const dse::Explorer&
explorer()
{
    static dse::Explorer ex(est::calibratedEstimator(),
                            runtimeEstimator());
    return ex;
}

std::vector<dse::DesignPoint>
selectParetoPoints(const Graph& g, int max_points, int take,
                   uint64_t seed)
{
    dse::ExploreConfig cfg;
    cfg.maxPoints = max_points;
    cfg.seed = seed;
    auto res = explorer().explore(g, cfg);
    std::vector<dse::DesignPoint> out;
    if (res.pareto.empty())
        return out;
    size_t n = res.pareto.size();
    size_t want = size_t(take) < n ? size_t(take) : n;
    for (size_t i = 0; i < want; ++i) {
        size_t idx = want == 1 ? 0 : i * (n - 1) / (want - 1);
        out.push_back(res.points[res.pareto[idx]]);
    }
    return out;
}

std::string
fmt(double v, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << v;
    return os.str();
}

std::string
pct(double fraction)
{
    return fmt(fraction * 100.0, 1) + "%";
}

void
rule(int width)
{
    for (int i = 0; i < width; ++i)
        std::cout << '-';
    std::cout << "\n";
}

} // namespace dhdl::bench
