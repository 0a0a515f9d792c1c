#include <gtest/gtest.h>

#include "core/builder.hh"
#include "core/transform.hh"

namespace dhdl {
namespace {

TEST(GraphStatsTest, CountsMatchDesign)
{
    Design d("stats");
    Mem a = d.offchip("a", DType::f32(), {Sym::c(64)});
    d.accel([&](Scope& s) {
        s.metaPipe("M", {ctr(64, Sym::c(8))}, Sym::c(1), Sym::c(1),
                   [&](Scope& m, std::vector<Val> rv) {
                       Mem t = m.bram("t", DType::f32(), {Sym::c(8)});
                       m.tileLoad(a, t, {rv[0]}, {Sym::c(8)});
                       m.pipe("P", {ctr(8)}, Sym::c(1),
                              [&](Scope& p, std::vector<Val> ii) {
                                  Val v = p.load(t, {ii[0]});
                                  p.store(t, {ii[0]}, v + 1.0);
                              });
                   });
    });
    auto s = computeStats(d.graph());
    EXPECT_EQ(s.controllers, 3); // accel + MetaPipe + Pipe
    EXPECT_EQ(s.pipes, 1);
    EXPECT_EQ(s.metaPipes, 1);
    EXPECT_EQ(s.memories, 1);
    EXPECT_EQ(s.offchipMems, 1);
    EXPECT_EQ(s.transfers, 1);
    EXPECT_EQ(s.maxDepth, 3);
}

} // namespace
} // namespace dhdl
