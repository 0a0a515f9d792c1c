/**
 * Figure 6 — Speedup of the best generated FPGA design over the
 * optimized multi-core CPU implementation.
 *
 * FPGA side: DSE selects the fastest valid design per benchmark; its
 * runtime comes from the timing simulator at 150 MHz (the paper runs
 * the real board). CPU side: the roofline model of the paper's 6-core
 * Xeon E5-2630 (2.3 GHz, 42.6 GB/s), with per-benchmark operation /
 * byte counts at Table II sizes and sustained-efficiency factors
 * chosen per workload class (see comments below and DESIGN.md for
 * the substitution rationale).
 *
 * Paper speedups: dotproduct 1.07, outerprod 2.42, gemm 0.10,
 * tpchq6 1.11, blackscholes 16.73, gda 4.55, kmeans 1.15.
 */

#include <iomanip>
#include <iostream>

#include "bench_common.hh"
#include "cpu/roofline.hh"
#include "sim/timing.hh"

using namespace dhdl;
using apps::PaperSizes;

namespace {

/**
 * CPU workload models at a given dataset scale. Efficiencies:
 *  - streaming kernels sustain ~85% of bandwidth;
 *  - outerprod pays write-allocate traffic (reads the output lines it
 *    overwrites), halving its effective write bandwidth;
 *  - gemm sustains OpenBLAS's ~89 GFLOPs (Section V-D) = 40% of peak;
 *  - blackscholes spends most cycles in exp/log/div, sustaining only
 *    a few percent of peak FLOPs;
 *  - gda and kmeans are OptiML-generated (Section V-D): correct and
 *    multithreaded, but short of hand-tuned BLAS efficiency.
 */
std::vector<cpu::CpuWorkload>
workloads(double s)
{
    auto N = [&](int64_t v) { return double(v) * s; };
    std::vector<cpu::CpuWorkload> w;

    cpu::CpuWorkload dot;
    dot.name = "dotproduct";
    dot.flops = 2.0 * N(PaperSizes::dotN);
    dot.bytes = 8.0 * N(PaperSizes::dotN);
    dot.computeEff = 0.5;
    dot.memoryEff = 0.85;
    w.push_back(dot);

    cpu::CpuWorkload outer;
    outer.name = "outerprod";
    double cells = N(PaperSizes::outerN) * N(PaperSizes::outerM) / s;
    outer.flops = cells;
    // Without non-temporal stores every output line is read on the
    // write miss (write-allocate), then written back dirty: 3x the
    // payload traffic.
    outer.bytes = 3.0 * 4.0 * cells +
                  4.0 * (N(PaperSizes::outerN) + N(PaperSizes::outerM));
    outer.computeEff = 0.5;
    outer.memoryEff = 0.85;
    w.push_back(outer);

    cpu::CpuWorkload gemm;
    gemm.name = "gemm";
    double gm = N(PaperSizes::gemmM), gn = N(PaperSizes::gemmN),
           gk = N(PaperSizes::gemmK);
    gemm.flops = 2.0 * gm * gn * gk;
    gemm.bytes = 4.0 * (gm * gk + gk * gn + gm * gn);
    gemm.computeEff = 0.40; // ~89 GFLOPs (OpenBLAS, Section V-D)
    gemm.memoryEff = 0.85;
    w.push_back(gemm);

    cpu::CpuWorkload q6;
    q6.name = "tpchq6";
    q6.flops = 6.0 * N(PaperSizes::tpchN);
    q6.bytes = 16.0 * N(PaperSizes::tpchN);
    q6.computeEff = 0.5;
    // Data-dependent branches stall the frontend (Section V-D).
    q6.memoryEff = 0.72;
    w.push_back(q6);

    cpu::CpuWorkload bs;
    bs.name = "blackscholes";
    bs.flops = 250.0 * N(PaperSizes::bsN); // incl. exp/log/div/sqrt
    bs.bytes = 28.0 * N(PaperSizes::bsN);
    bs.computeEff = 0.075; // transcendental-dominated scalar code
    bs.memoryEff = 0.85;
    w.push_back(bs);

    cpu::CpuWorkload gda;
    gda.name = "gda";
    double R = N(PaperSizes::gdaR), C = double(PaperSizes::gdaC);
    gda.flops = R * (3.0 * C + 2.0 * C * C);
    gda.bytes = 4.0 * R * C + 8.0 * C * C;
    // OptiML materializes the per-row difference vector and runs a
    // rank-1 update without register blocking: a few percent of peak.
    gda.computeEff = 0.065;
    gda.memoryEff = 0.85;
    w.push_back(gda);

    cpu::CpuWorkload km;
    km.name = "kmeans";
    double kn = N(PaperSizes::kmN), kk = double(PaperSizes::kmK),
           kd = double(PaperSizes::kmD);
    km.flops = 3.0 * kn * kk * kd;
    km.bytes = 4.0 * kn * kd;
    // Scalar distance + argmin loop (gathered accesses, unpredictable
    // branch per centroid): about one flop per core-cycle.
    km.computeEff = 0.05;
    km.memoryEff = 0.85;
    w.push_back(km);
    return w;
}

} // namespace

int
main()
{
    const double scale = bench::kBenchScale;
    const int points = bench::kPaperPoints;
    cpu::CpuPlatform xeon; // the paper's E5-2630

    // Paper numbers for the side-by-side column.
    const double paper[] = {1.07, 2.42, 0.10, 1.11, 16.73, 4.55,
                            1.15};

    std::cout << "Figure 6: speedup of best FPGA design over 6-core "
                 "CPU (scale="
              << scale << ")\n\n";
    std::cout << std::left << std::setw(14) << "Benchmark"
              << std::right << std::setw(12) << "CPU (s)"
              << std::setw(12) << "FPGA (s)" << std::setw(10)
              << "Speedup" << std::setw(10) << "Paper" << "\n";
    bench::rule(58);

    auto cpu_w = workloads(scale);
    const auto& apps_list = apps::allApps();
    for (size_t i = 0; i < apps_list.size(); ++i) {
        Design d = apps_list[i].build(scale);
        dse::ExploreConfig cfg;
        cfg.maxPoints = points;
        auto res = bench::explorer().explore(d.graph(), cfg);
        auto best = res.bestIndex();
        if (!best) {
            std::cout << std::left << std::setw(14)
                      << apps_list[i].name
                      << "  (no valid design found; "
                      << res.stats.failed << " of "
                      << res.stats.total
                      << " points failed evaluation)\n";
            continue;
        }
        Inst inst(d.graph(), res.points[*best].binding);
        double fpga_s = sim::TimingSim(inst).run().seconds;
        double cpu_s = cpu::cpuTimeSeconds(xeon, cpu_w[i]);
        std::cout << std::left << std::setw(14) << apps_list[i].name
                  << std::right << std::setw(12)
                  << bench::fmt(cpu_s, 4) << std::setw(12)
                  << bench::fmt(fpga_s, 4) << std::setw(9)
                  << bench::fmt(cpu_s / fpga_s, 2) << "x"
                  << std::setw(9) << bench::fmt(paper[i], 2) << "x"
                  << "\n";
    }
    std::cout << "\nFPGA time is simulated at 150 MHz on the best "
                 "DSE point; CPU time is the\ncalibrated Xeon "
                 "E5-2630 roofline (see DESIGN.md substitutions).\n";
    return 0;
}
