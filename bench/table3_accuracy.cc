/**
 * Table III — Average absolute error for resource usage and runtime.
 *
 * Methodology (Section V-B): for each benchmark, select five Pareto
 * points from design space exploration, "synthesize" each with the
 * vendor toolchain (here: the synthetic P&R flow) and run it (here:
 * the timing simulator), then compare the estimates against the
 * post-P&R report and the observed runtime.
 *
 * Paper row (average): ALMs 4.8%, DSPs 7.5%, BRAM 12.3%, runtime 6.1%.
 */

#include <cmath>
#include <iomanip>
#include <iostream>

#include "bench_common.hh"
#include "fpga/toolchain.hh"
#include "sim/timing.hh"

using namespace dhdl;

namespace {

struct ErrorRow {
    std::string name;
    double alm = 0, dsp = 0, bram = 0, runtime = 0;
};

double
relErr(double est, double truth)
{
    if (truth <= 0)
        return est > 0 ? 1.0 : 0.0;
    return std::fabs(est - truth) / truth;
}

} // namespace

int
main()
{
    const double scale = bench::kBenchScale;
    const int points = bench::kPaperPoints;
    const auto& tc = est::defaultToolchain();

    std::cout << "Table III: average absolute error for resource "
                 "usage and runtime\n";
    std::cout << "(scale=" << scale << ", DSE points=" << points
              << ", 5 Pareto points per benchmark)\n\n";
    std::cout << std::left << std::setw(14) << "Benchmark"
              << std::right << std::setw(8) << "ALMs" << std::setw(8)
              << "DSPs" << std::setw(8) << "BRAM" << std::setw(10)
              << "Runtime" << "\n";
    bench::rule(48);

    ErrorRow avg{"Average"};
    int n_rows = 0;
    for (const auto& app : apps::allApps()) {
        Design d = app.build(scale);
        auto pareto =
            bench::selectParetoPoints(d.graph(), points, 5);
        if (pareto.empty()) {
            std::cout << std::left << std::setw(14) << app.name
                      << "  (no valid designs)\n";
            continue;
        }
        ErrorRow row{app.name};
        for (const auto& p : pareto) {
            Inst inst(d.graph(), p.binding);
            auto report = tc.synthesize(inst);
            auto timed = sim::TimingSim(inst).run();
            row.alm += relErr(p.area.alms, report.alms);
            row.dsp += relErr(p.area.dsps, report.dsps);
            row.bram += relErr(p.area.brams, report.brams);
            row.runtime += relErr(p.cycles, timed.cycles);
        }
        double k = double(pareto.size());
        row.alm /= k;
        row.dsp /= k;
        row.bram /= k;
        row.runtime /= k;

        std::cout << std::left << std::setw(14) << row.name
                  << std::right << std::setw(8)
                  << bench::pct(row.alm) << std::setw(8)
                  << bench::pct(row.dsp) << std::setw(8)
                  << bench::pct(row.bram) << std::setw(10)
                  << bench::pct(row.runtime) << "\n";
        avg.alm += row.alm;
        avg.dsp += row.dsp;
        avg.bram += row.bram;
        avg.runtime += row.runtime;
        ++n_rows;
    }
    bench::rule(48);
    if (n_rows > 0) {
        std::cout << std::left << std::setw(14) << "Average"
                  << std::right << std::setw(8)
                  << bench::pct(avg.alm / n_rows) << std::setw(8)
                  << bench::pct(avg.dsp / n_rows) << std::setw(8)
                  << bench::pct(avg.bram / n_rows) << std::setw(10)
                  << bench::pct(avg.runtime / n_rows) << "\n";
    }
    std::cout << "\nPaper (Table III) average: ALMs 4.8%  DSPs 7.5%  "
                 "BRAM 12.3%  runtime 6.1%\n";
    return 0;
}
