/**
 * Ablation — the Section IV-C pruning heuristics. Compares, for each
 * benchmark:
 *   - the unpruned parameter-space size (every integer tile size and
 *     parallelization factor in range) against the pruned legal
 *     subspace (divisors only, banking inferred, memory caps), and
 *   - the quality of the best design found within a fixed sampling
 *     budget when sampling the pruned space vs sampling the raw
 *     space (raw samples are rounded to the nearest legal point,
 *     wasting budget on duplicates and cap violations).
 */

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <span>
#include <unordered_set>

#include "bench_common.hh"

using namespace dhdl;

namespace {

/** Unpruned size: every integer value in [min, min(max, divisorOf)]. */
double
unprunedSize(const ParamTable& params)
{
    double n = 1;
    for (size_t i = 0; i < params.size(); ++i) {
        const auto& d = params[ParamId(i)];
        double range;
        switch (d.kind) {
          case ParamKind::Toggle:
            range = 2;
            break;
          case ParamKind::Fixed:
            range = 1;
            break;
          default:
            range = double(std::min(
                d.maxValue,
                d.divisorOf > 0 ? d.divisorOf : d.maxValue));
            break;
        }
        n *= std::max(1.0, range);
    }
    return n;
}

/** Round a raw value onto the nearest legal value of a parameter. */
int64_t
snap(std::span<const int64_t> legal, int64_t v)
{
    auto it = std::lower_bound(legal.begin(), legal.end(), v);
    if (it == legal.end())
        return legal.back();
    if (it == legal.begin())
        return legal.front();
    return (*it - v) < (v - *(it - 1)) ? *it : *(it - 1);
}

} // namespace

int
main()
{
    const int budget = 400; // sample draws per strategy
    const double scale = bench::kBenchScale;

    std::cout << "Ablation: divisor pruning of the design space "
                 "(sample budget "
              << budget << ")\n\n";
    std::cout << std::left << std::setw(14) << "Benchmark"
              << std::right << std::setw(13) << "raw space"
              << std::setw(13) << "pruned" << std::setw(11)
              << "reduction" << std::setw(14) << "best pruned"
              << std::setw(14) << "best raw" << "\n";
    bench::rule(79);

    for (const auto& app : apps::allApps()) {
        Design d = app.build(scale);
        dse::ParamSpace space(d.graph());
        double raw = unprunedSize(d.params());
        double pruned = space.sizeEstimate();

        // Pruned sampling: budget distinct legal points.
        dse::ExploreConfig cfg;
        cfg.maxPoints = budget;
        auto res = bench::explorer().explore(d.graph(), cfg);
        auto best = res.bestIndex();
        double best_pruned = best ? res.points[*best].cycles : -1;
        if (res.stats.failed)
            std::cout << "  (" << app.name << ": "
                      << res.stats.failed
                      << " points failed evaluation)\n";

        // Raw sampling: draw raw integers, snap to legal, dedupe; the
        // budget counts raw draws, so duplicates burn it.
        ml::Rng rng(0xAB2);
        std::unordered_set<uint64_t> seen;
        double best_raw = -1;
        for (int i = 0; i < budget; ++i) {
            ParamBinding b;
            for (size_t pi = 0; pi < d.params().size(); ++pi) {
                const auto& def = d.params()[ParamId(pi)];
                const auto legal = d.params().legalValues(ParamId(pi));
                int64_t hi = std::min(
                    def.maxValue,
                    def.divisorOf > 0 ? def.divisorOf : def.maxValue);
                int64_t v = rng.uniformInt(def.minValue,
                                           std::max(def.minValue,
                                                    hi));
                b.values.push_back(snap(legal, v));
            }
            uint64_t h = 0x9e3779b97f4a7c15ull;
            for (int64_t v : b.values)
                h = ml::hashMix(h ^ uint64_t(v));
            if (!seen.insert(h).second)
                continue; // duplicate: budget wasted
            if (!space.isLegal(b))
                continue; // cap violation: budget wasted
            auto p = bench::explorer().evaluate(d.graph(), b);
            if (p.valid && (best_raw < 0 || p.cycles < best_raw))
                best_raw = p.cycles;
        }

        std::cout << std::left << std::setw(14) << app.name
                  << std::right << std::setw(13)
                  << bench::fmt(raw, 0) << std::setw(13)
                  << bench::fmt(pruned, 0) << std::setw(10)
                  << bench::fmt(raw / std::max(1.0, pruned), 0)
                  << "x" << std::setw(14)
                  << (best_pruned < 0 ? "-"
                                      : bench::fmt(best_pruned, 0))
                  << std::setw(14)
                  << (best_raw < 0 ? "-" : bench::fmt(best_raw, 0))
                  << "\n";
    }
    std::cout << "\nLower best-cycles is better; equal-budget raw "
                 "sampling wastes draws on\nduplicates after "
                 "snapping, so pruned sampling should match or win."
              << "\n";
    return 0;
}
