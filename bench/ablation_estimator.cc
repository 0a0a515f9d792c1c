/**
 * Ablation — the hybrid area estimator's ANN corrections vs an
 * analytic-only estimator using the fixed average factors from
 * Section IV-A prose (~10% routing, ~5% register duplication, ~4%
 * unavailable LUTs). Quantifies how much of Table III's accuracy the
 * design-level neural networks buy, on held-out random designs.
 * Also reports the throughput of one hybrid estimate via
 * google-benchmark (it must stay in the sub-millisecond regime that
 * makes 75,000-point DSE practical).
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <iomanip>
#include <iostream>

#include "bench_common.hh"
#include "fpga/toolchain.hh"

using namespace dhdl;

namespace {

void
BM_HybridEstimateList(benchmark::State& state)
{
    const auto& est = est::calibratedEstimator();
    auto ts = fpga::randomTemplateList(est.device(), 123);
    for (auto _ : state) {
        auto e = est.estimateList(ts);
        benchmark::DoNotOptimize(e.alms);
    }
}
BENCHMARK(BM_HybridEstimateList);

} // namespace

int
main(int argc, char** argv)
{
    const auto& est = est::calibratedEstimator();
    const auto& tc = est::defaultToolchain();
    const int n = 80; // random template lists compared

    double hyb_alm = 0, ana_alm = 0, hyb_bram = 0, ana_bram = 0;
    int used = 0;
    for (int i = 0; i < n; ++i) {
        auto ts = fpga::randomTemplateList(est.device(),
                                           0xAB1A7E + uint64_t(i));
        auto truth = tc.synthesizeList(ts);
        if (truth.alms < 1000)
            continue;
        auto hyb = est.estimateList(ts);
        auto ana = est.estimateAnalyticOnly(ts);
        hyb_alm += std::fabs(hyb.alms - truth.alms) / truth.alms;
        ana_alm += std::fabs(ana.alms - truth.alms) / truth.alms;
        hyb_bram += std::fabs(hyb.brams - truth.brams) /
                    std::max(1.0, truth.brams);
        ana_bram += std::fabs(ana.brams - truth.brams) /
                    std::max(1.0, truth.brams);
        ++used;
    }

    std::cout << "Ablation: hybrid (template models + ANNs) vs "
                 "analytic-only area estimation\n("
              << used << " held-out random designs)\n\n";
    std::cout << std::left << std::setw(26) << "Estimator"
              << std::right << std::setw(12) << "ALM err"
              << std::setw(12) << "BRAM err" << "\n";
    bench::rule(50);
    std::cout << std::left << std::setw(26) << "Hybrid (paper)"
              << std::right << std::setw(12)
              << bench::pct(hyb_alm / used) << std::setw(12)
              << bench::pct(hyb_bram / used) << "\n";
    std::cout << std::left << std::setw(26) << "Analytic-only"
              << std::right << std::setw(12)
              << bench::pct(ana_alm / used) << std::setw(12)
              << bench::pct(ana_bram / used) << "\n\n";

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
