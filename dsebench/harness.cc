#include "harness.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>

#include "apps/apps.hh"
#include "core/passes.hh"

namespace dsebench {

void
Tracer::record(const char* layer, Clock::time_point t0,
               Clock::time_point t1)
{
    const double startUs =
        std::chrono::duration<double, std::micro>(t0 - origin_).count();
    const double durUs =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    const uint64_t tid =
        std::hash<std::thread::id>()(std::this_thread::get_id());
    std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return;
    }
    spans_.push_back({layer, startUs, durUs, tid});
}

bool
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream os(path, std::ios::trunc);
    // Small dense thread ids keep the trace readable in Perfetto.
    std::map<uint64_t, int> tids;
    os << "{\"displayTimeUnit\":\"ms\",\"droppedEvents\":" << dropped_
       << ",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const int tid = tids.emplace(s.tid, int(tids.size()) + 1)
                            .first->second;
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"dsebench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
           << tid << ",\"ts\":" << s.startUs << ",\"dur\":" << s.durUs
           << "}";
    }
    os << "\n]}\n";
    return bool(os);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    if (p == 0.5 && v.size() % 2 == 0)
        return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
    const size_t idx = size_t(p * double(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

const std::vector<std::string>&
sweepApps()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto& a : dhdl::apps::allApps())
            n.push_back(a.name);
        n.push_back("conv2d");
        return n;
    }();
    return names;
}

dhdl::Graph
buildDesign(const std::string& name, double scale)
{
    dhdl::Graph g = dhdl::apps::loadGraph(name, scale);
    dhdl::DiagSink sink;
    dhdl::PassContext ctx(sink);
    dhdl::PassManager pm = dhdl::standardPasses();
    dhdl::Status st = pm.run(g, ctx);
    if (!st.ok())
        throw std::runtime_error("design '" + name +
                                 "' failed the pass pipeline: " +
                                 st.diag().str());
    return g;
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 finalizer: distinct, well-spread seeds per stream.
    uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Front
frontOf(const std::vector<dhdl::dse::DesignPoint>& points,
        const std::vector<size_t>& idx)
{
    Front f;
    for (size_t i : idx)
        f.emplace_back(i, points[i].area.alms, double(points[i].cycles));
    return f;
}

Front
frontOf(const dhdl::dse::ExploreResult& r)
{
    return frontOf(r.points, r.pareto);
}

} // namespace dsebench
