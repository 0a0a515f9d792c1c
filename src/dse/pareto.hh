/**
 * @file
 * Pareto-frontier extraction and incremental maintenance. The paper
 * reports Pareto-optimal designs "along the dimensions of execution
 * time and ALM utilization" (Section V-C1); both objectives are
 * minimized.
 *
 * Two forms share one canonical dominance rule:
 *
 *  - paretoFront(): batch extraction over a whole point set;
 *  - ParetoFront: an incremental front that absorbs points one at a
 *    time, used by the round-based search driver so per-round updates
 *    never rescan history.
 *
 * The canonical rule breaks exact (x, y) ties by lowest index, which
 * makes the front a pure function of the point *set*: inserting the
 * same points in any order yields the identical front that a batch
 * rebuild over the full set yields (pinned by a property test).
 */

#ifndef DHDL_DSE_PARETO_HH
#define DHDL_DSE_PARETO_HH

#include <cstddef>
#include <span>
#include <vector>

namespace dhdl::dse {

/**
 * Indices of the Pareto-minimal points (xs[i], ys[i]); xs and ys have
 * equal length. A point is Pareto-optimal when no other point is <=
 * in both objectives and < in at least one; exact (x, y) duplicates
 * keep only the lowest index. Returned sorted by x ascending.
 */
std::vector<size_t>
paretoFront(std::span<const double> xs, std::span<const double> ys);

/**
 * Incrementally maintained Pareto front (both objectives minimized).
 *
 * Entries are kept sorted by x strictly ascending / y strictly
 * descending, so membership and insertion are O(log n) plus the
 * number of entries the new point evicts. The tie rule matches
 * paretoFront(): a point with the same (x, y) as an existing entry
 * enters only when its index is lower, so the final front is
 * insertion-order independent.
 */
class ParetoFront
{
  public:
    struct Entry {
        size_t index = 0;
        double x = 0;
        double y = 0;
    };

    /**
     * Offer a point to the front. Returns true when the point enters
     * (possibly evicting dominated entries); false when an existing
     * entry dominates it under the canonical rule.
     */
    bool insert(size_t index, double x, double y);

    /** Would (x, y) be rejected by the current front? Ties count as
     *  dominated (an equal entry keeps the front unchanged). */
    bool dominated(double x, double y) const;

    /** Entries sorted by x ascending (y strictly descending). */
    const std::vector<Entry>& entries() const { return entries_; }

    /** Point indices of the front, sorted by x ascending — the same
     *  vector a canonical batch rebuild would produce. */
    std::vector<size_t> indices() const;

    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    void clear() { entries_.clear(); }

  private:
    std::vector<Entry> entries_;
};

} // namespace dhdl::dse

#endif // DHDL_DSE_PARETO_HH
