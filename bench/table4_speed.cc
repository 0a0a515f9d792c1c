/**
 * Table IV — Average estimation time per design point.
 *
 * The paper compares its estimator against Vivado HLS on 250 GDA
 * design points: 0.017 s/design for DHDL vs 4.75 s (HLS "restricted",
 * no outer-loop pipelining) and 111.06 s (HLS "full"), i.e. 279x and
 * 6533x speedups. Here the HLS baseline is the reference flattening +
 * list-scheduling estimator (see src/hls/): Full mode completely
 * unrolls inner loops under pipelined outer loops, exactly the
 * mechanism that makes the commercial tool slow.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <iomanip>
#include <iostream>

#include "bench_common.hh"
#include "hls/hls_estimator.hh"

using namespace dhdl;

namespace {

/** GDA design points compared, as in the paper. */
constexpr int kDesigns = 250;

/** The GDA design points used for the comparison. */
struct Table4Setup {
    Design design;
    std::vector<ParamBinding> points;

    Table4Setup() : design(apps::buildGda(gdaConfig()))
    {
        dse::ParamSpace space(design.graph());
        points = space.sample(kDesigns, 0x7AB1E4);
        if (points.empty())
            points.push_back(design.params().defaults());
    }

    static apps::GdaConfig
    gdaConfig()
    {
        // GDA scaled by the bench scale; the paper uses its full
        // dataset but per-design analysis cost is size-insensitive
        // for DHDL and tile-size-sensitive for HLS.
        apps::GdaConfig c;
        c.rows = apps::scaledSize(c.rows, bench::kBenchScale, 960);
        return c;
    }
};

Table4Setup&
setup()
{
    static Table4Setup s;
    return s;
}

double
timePerDesign(const std::function<void(const ParamBinding&)>& fn,
              const std::vector<ParamBinding>& points, size_t limit)
{
    size_t n = std::min(points.size(), limit);
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i)
        fn(points[i]);
    auto stop = std::chrono::steady_clock::now();
    std::chrono::duration<double> dt = stop - start;
    return dt.count() / double(n);
}

void
BM_DhdlEstimate(benchmark::State& state)
{
    auto& s = setup();
    size_t i = 0;
    for (auto _ : state) {
        Inst inst(s.design.graph(), s.points[i % s.points.size()]);
        auto area = est::calibratedEstimator().estimate(inst);
        auto rt = bench::runtimeEstimator().estimate(inst);
        benchmark::DoNotOptimize(area.alms + rt.cycles);
        ++i;
    }
}
BENCHMARK(BM_DhdlEstimate);

void
BM_HlsRestricted(benchmark::State& state)
{
    auto& s = setup();
    hls::HlsEstimator est;
    size_t i = 0;
    for (auto _ : state) {
        Inst inst(s.design.graph(), s.points[i % s.points.size()]);
        auto e = est.estimate(inst, hls::HlsMode::Restricted);
        benchmark::DoNotOptimize(e.cycles);
        ++i;
    }
}
BENCHMARK(BM_HlsRestricted);

void
BM_HlsFull(benchmark::State& state)
{
    auto& s = setup();
    hls::HlsEstimator est;
    size_t i = 0;
    for (auto _ : state) {
        Inst inst(s.design.graph(), s.points[i % s.points.size()]);
        auto e = est.estimate(inst, hls::HlsMode::Full);
        benchmark::DoNotOptimize(e.cycles);
        ++i;
    }
}
BENCHMARK(BM_HlsFull)->Iterations(3);

} // namespace

int
main(int argc, char** argv)
{
    auto& s = setup();
    std::cout << "Table IV: average estimation time per design point "
              << "(GDA, " << s.points.size() << " design points)\n\n";

    // Warm the calibrated estimators (characterization + training is
    // a one-off cost, amortized over every design of every app).
    {
        Inst warm(s.design.graph(), s.points.front());
        est::calibratedEstimator().estimate(warm);
        bench::runtimeEstimator().estimate(warm);
    }

    auto dhdl_time = timePerDesign(
        [&](const ParamBinding& b) {
            Inst inst(s.design.graph(), b);
            auto area = est::calibratedEstimator().estimate(inst);
            auto rt = bench::runtimeEstimator().estimate(inst);
            benchmark::DoNotOptimize(area.alms + rt.cycles);
        },
        s.points, s.points.size());

    hls::HlsEstimator hls_est;
    auto restricted_time = timePerDesign(
        [&](const ParamBinding& b) {
            Inst inst(s.design.graph(), b);
            auto e = hls_est.estimate(inst, hls::HlsMode::Restricted);
            benchmark::DoNotOptimize(e.cycles);
        },
        s.points, 40);

    auto full_time = timePerDesign(
        [&](const ParamBinding& b) {
            Inst inst(s.design.graph(), b);
            auto e = hls_est.estimate(inst, hls::HlsMode::Full);
            benchmark::DoNotOptimize(e.cycles);
        },
        s.points, 6);

    std::cout << std::left << std::setw(26) << "Estimator"
              << std::right << std::setw(16) << "sec/design"
              << std::setw(12) << "vs ours" << "\n";
    bench::rule(54);
    std::cout << std::left << std::setw(26) << "Our approach (DHDL)"
              << std::right << std::setw(16)
              << bench::fmt(dhdl_time, 6) << std::setw(12) << "1x"
              << "\n";
    std::cout << std::left << std::setw(26) << "HLS restricted"
              << std::right << std::setw(16)
              << bench::fmt(restricted_time, 6) << std::setw(12)
              << bench::fmt(restricted_time / dhdl_time, 0) + "x"
              << "\n";
    std::cout << std::left << std::setw(26) << "HLS full"
              << std::right << std::setw(16)
              << bench::fmt(full_time, 6) << std::setw(12)
              << bench::fmt(full_time / dhdl_time, 0) + "x" << "\n";
    std::cout << "\nPaper (Table IV): 0.017 s/design vs 4.75 s "
                 "(restricted, 279x) and 111.06 s (full, 6533x)\n\n";

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
