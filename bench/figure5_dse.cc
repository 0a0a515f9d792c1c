/**
 * Figure 5 — Design space exploration scatter plots.
 *
 * For each of the seven benchmarks (panels A-U of the paper: one row
 * per benchmark, one column per resource), this bench samples the
 * legal design space, estimates every point, and emits:
 *   - a console summary (points, valid/invalid split, Pareto size,
 *     fastest design, and its parameters), and
 *   - one CSV per benchmark (out/figure5_<name>.csv) with columns
 *     alm_pct, dsp_pct, bram_pct, log10_cycles, valid, pareto —
 *     exactly the data plotted in the paper's scatter panels.
 *
 * Generated artifacts land under out/ (created on demand), never in
 * the repo root.
 */

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>

#include "bench_common.hh"

using namespace dhdl;

int
main()
{
    const double scale = bench::kBenchScale;
    const int points = bench::kPaperPoints;
    const auto& dev = est::calibratedEstimator().device();

    std::cout << "Figure 5: design space exploration (scale=" << scale
              << ", up to " << points << " legal points/benchmark)\n\n";
    std::filesystem::create_directories("out");

    std::cout << std::left << std::setw(14) << "Benchmark"
              << std::right << std::setw(9) << "points"
              << std::setw(8) << "failed" << std::setw(9) << "valid"
              << std::setw(9) << "pareto" << std::setw(14)
              << "best cycles" << std::setw(11) << "best %ALM"
              << std::setw(11) << "best %BRAM" << "\n";
    bench::rule(85);

    for (const auto& app : apps::allApps()) {
        Design d = app.build(scale);
        dse::ExploreConfig cfg;
        cfg.maxPoints = points;
        auto res = bench::explorer().explore(d.graph(), cfg);

        std::set<size_t> pareto(res.pareto.begin(),
                                res.pareto.end());

        std::ofstream csv("out/figure5_" + app.name + ".csv");
        csv << "alm_pct,dsp_pct,bram_pct,log10_cycles,valid,pareto\n";
        for (size_t i = 0; i < res.points.size(); ++i) {
            const auto& p = res.points[i];
            csv << 100.0 * p.area.alms / double(dev.alms) << ","
                << 100.0 * p.area.dsps / double(dev.dsps) << ","
                << 100.0 * p.area.brams / double(dev.m20ks) << ","
                << std::log10(std::max(1.0, p.cycles)) << ","
                << (p.valid ? 1 : 0) << ","
                << (pareto.count(i) ? 1 : 0) << "\n";
        }

        auto best = res.bestIndex();
        std::cout << std::left << std::setw(14) << app.name
                  << std::right << std::setw(9) << res.points.size()
                  << std::setw(8) << res.stats.failed << std::setw(9)
                  << res.stats.valid << std::setw(9)
                  << res.pareto.size();
        if (best) {
            const auto& bp = res.points[*best];
            std::cout << std::setw(14)
                      << bench::fmt(bp.cycles, 0) << std::setw(10)
                      << bench::fmt(
                             100.0 * bp.area.alms / double(dev.alms),
                             1)
                      << "%" << std::setw(10)
                      << bench::fmt(100.0 * bp.area.brams /
                                        double(dev.m20ks),
                                    1)
                      << "%";
        }
        std::cout << "\n";

        // Surface per-point failures instead of dying on them: a
        // sweep is useful even when some bindings cannot be built.
        if (res.stats.failed) {
            for (const auto& [label, count] : res.failureSummary())
                std::cout << "    failures: " << count << "x "
                          << label << "\n";
        }

        // Print the Pareto frontier series (the highlighted curve in
        // each panel), up to 8 points.
        size_t n = res.pareto.size();
        size_t show = n < 8 ? n : 8;
        for (size_t i = 0; i < show; ++i) {
            size_t idx = res.pareto[show == 1
                                        ? 0
                                        : i * (n - 1) / (show - 1)];
            const auto& p = res.points[idx];
            std::cout << "    pareto: cycles="
                      << bench::fmt(p.cycles, 0) << " alm="
                      << bench::fmt(
                             100.0 * p.area.alms / double(dev.alms),
                             1)
                      << "% dsp="
                      << bench::fmt(
                             100.0 * p.area.dsps / double(dev.dsps),
                             1)
                      << "% bram="
                      << bench::fmt(100.0 * p.area.brams /
                                        double(dev.m20ks),
                                    1)
                      << "%  [";
            for (size_t j = 0; j < p.binding.values.size(); ++j) {
                if (j)
                    std::cout << " ";
                std::cout << d.params()[ParamId(j)].name << "="
                          << p.binding.values[j];
            }
            std::cout << "]\n";
        }
    }
    std::cout << "\nCSV panels written to out/figure5_<benchmark>.csv\n";
    return 0;
}
