#include "dse/pareto.hh"

#include <algorithm>

namespace dhdl::dse {

std::vector<size_t>
paretoFront(std::span<const double> xs, std::span<const double> ys)
{
    std::vector<size_t> order(xs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (xs[a] != xs[b])
            return xs[a] < xs[b];
        if (ys[a] != ys[b])
            return ys[a] < ys[b];
        return a < b;
    });

    std::vector<size_t> front;
    double best_y = 1e300;
    for (size_t i : order) {
        if (ys[i] < best_y) {
            front.push_back(i);
            best_y = ys[i];
        }
    }
    return front;
}

bool
ParetoFront::dominated(double x, double y) const
{
    // Entries run x strictly ascending / y strictly descending, so
    // among entries with e.x <= x the *last* has the minimum y; it
    // dominates (x, y) iff any entry does. Ties count as dominated.
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), x,
        [](double v, const Entry& e) { return v < e.x; });
    if (it == entries_.begin())
        return false;
    return std::prev(it)->y <= y;
}

bool
ParetoFront::insert(size_t index, double x, double y)
{
    // Position of the first entry with e.x >= x.
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), x,
        [](const Entry& e, double v) { return e.x < v; });

    // Dominance by the predecessor (strictly smaller x): its y is the
    // minimum over all entries left of `it`.
    if (it != entries_.begin() && std::prev(it)->y <= y)
        return false;
    // Dominance by an equal-x entry: smaller y wins; an exact (x, y)
    // duplicate keeps the lowest index (the canonical batch tie rule).
    if (it != entries_.end() && it->x == x &&
        (it->y < y || (it->y == y && it->index < index)))
        return false;

    // The new point enters; evict the contiguous run it dominates
    // (same or larger x, same or larger y — including an exact
    // duplicate with a higher index).
    auto last = it;
    while (last != entries_.end() && last->y >= y)
        ++last;
    it = entries_.erase(it, last);
    entries_.insert(it, Entry{index, x, y});
    return true;
}

std::vector<size_t>
ParetoFront::indices() const
{
    std::vector<size_t> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_)
        out.push_back(e.index);
    return out;
}

} // namespace dhdl::dse
