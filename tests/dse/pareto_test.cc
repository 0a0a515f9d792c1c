#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dse/pareto.hh"

namespace dhdl::dse {
namespace {

std::vector<size_t>
front(const std::vector<std::pair<double, double>>& pts)
{
    std::vector<double> xs, ys;
    for (const auto& [x, y] : pts) {
        xs.push_back(x);
        ys.push_back(y);
    }
    return paretoFront(xs, ys);
}

TEST(ParetoTest, SimpleFront)
{
    // (1,10) (2,5) (3,1) form the front; (3,6) and (2,12) dominated.
    auto f = front({{1, 10}, {2, 5}, {3, 1}, {3, 6}, {2, 12}});
    EXPECT_EQ(f, (std::vector<size_t>{0, 1, 2}));
}

TEST(ParetoTest, SinglePoint)
{
    auto f = front({{5, 5}});
    EXPECT_EQ(f, (std::vector<size_t>{0}));
}

TEST(ParetoTest, AllDominatedByOne)
{
    auto f = front({{1, 1}, {2, 2}, {3, 3}});
    EXPECT_EQ(f, (std::vector<size_t>{0}));
}

TEST(ParetoTest, TiesOnXKeepBestY)
{
    auto f = front({{1, 5}, {1, 3}, {2, 1}});
    // x=1 keeps only y=3; then (2,1) improves y.
    EXPECT_EQ(f, (std::vector<size_t>{1, 2}));
}

TEST(ParetoTest, EmptyInput)
{
    EXPECT_TRUE(front({}).empty());
}

TEST(ParetoTest, FrontIsSortedByXAndDecreasingY)
{
    std::vector<std::pair<double, double>> pts;
    // Deterministic pseudo-random points.
    uint64_t state = 12345;
    for (int i = 0; i < 200; ++i) {
        state = state * 6364136223846793005ull + 13ull;
        double x = double(state % 1000);
        state = state * 6364136223846793005ull + 13ull;
        double y = double(state % 1000);
        pts.push_back({x, y});
    }
    auto f = front(pts);
    for (size_t i = 1; i < f.size(); ++i) {
        EXPECT_LE(pts[f[i - 1]].first, pts[f[i]].first);
        EXPECT_GT(pts[f[i - 1]].second, pts[f[i]].second);
    }
    // No front point may be dominated by any other point.
    for (size_t i : f) {
        for (size_t j = 0; j < pts.size(); ++j) {
            bool dominates = pts[j].first <= pts[i].first &&
                             pts[j].second <= pts[i].second &&
                             (pts[j].first < pts[i].first ||
                              pts[j].second < pts[i].second);
            EXPECT_FALSE(dominates)
                << "point " << j << " dominates front point " << i;
        }
    }
}

// ---------------------------------------------------------------
// Incremental front ≡ batch rebuild: the property the round-based
// driver rests on. paretoFront() over any point set must equal
// ParetoFront::insert() over any insertion order of the same set —
// including duplicate coordinates (the (x, y, index) tie rule) and
// skipped points (failed/invalid ones are simply never inserted).
// ---------------------------------------------------------------

TEST(ParetoFrontTest, InsertReportsFrontMembership)
{
    ParetoFront f;
    EXPECT_TRUE(f.insert(0, 5, 5));
    EXPECT_TRUE(f.insert(1, 3, 7));   // new knee
    EXPECT_FALSE(f.insert(2, 6, 6));  // dominated by (5,5)
    EXPECT_TRUE(f.insert(3, 4, 1));   // evicts (5,5)
    EXPECT_EQ(f.indices(), (std::vector<size_t>{1, 3}));
    EXPECT_TRUE(f.dominated(10, 10));
    EXPECT_FALSE(f.dominated(2, 2));
}

TEST(ParetoFrontTest, DuplicatePointKeepsLowestIndex)
{
    ParetoFront a, b;
    a.insert(4, 1, 1);
    a.insert(9, 1, 1);
    b.insert(9, 1, 1);
    b.insert(4, 1, 1);
    EXPECT_EQ(a.indices(), (std::vector<size_t>{4}));
    EXPECT_EQ(b.indices(), (std::vector<size_t>{4}));
}

TEST(ParetoFrontTest, AnyInsertionOrderMatchesBatchRebuild)
{
    // Deterministic xorshift; values drawn from a tiny grid so exact
    // ties in x, in y, and in both are common.
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };

    for (int trial = 0; trial < 50; ++trial) {
        const size_t n = 1 + size_t(next() % 120);
        std::vector<std::pair<double, double>> pts;
        std::vector<bool> usable;
        for (size_t i = 0; i < n; ++i) {
            pts.push_back({double(next() % 12), double(next() % 12)});
            // ~1 in 4 points plays a failed/invalid point: part of
            // the array, never inserted, never in the front.
            usable.push_back(next() % 4 != 0);
        }

        // Reference: the batch scan over the usable points only.
        std::vector<size_t> keep;
        std::vector<std::pair<double, double>> kept;
        for (size_t i = 0; i < n; ++i) {
            if (usable[i]) {
                keep.push_back(i);
                kept.push_back(pts[i]);
            }
        }
        auto ref = front(kept);
        for (size_t& k : ref)
            k = keep[k];

        // Incremental: three different insertion orders, same front.
        std::vector<size_t> order(keep);
        for (int shuffle = 0; shuffle < 3; ++shuffle) {
            for (size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[next() % i]);
            ParetoFront f;
            for (size_t i : order)
                f.insert(i, pts[i].first, pts[i].second);
            EXPECT_EQ(f.indices(), ref)
                << "trial " << trial << " shuffle " << shuffle;
            // Entries stay strictly ascending in x, strictly
            // descending in y — the structural front invariant.
            const auto& es = f.entries();
            for (size_t i = 1; i < es.size(); ++i) {
                EXPECT_LT(es[i - 1].x, es[i].x);
                EXPECT_GT(es[i - 1].y, es[i].y);
            }
        }
    }
}

} // namespace
} // namespace dhdl::dse
