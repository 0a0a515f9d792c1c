#include <gtest/gtest.h>

#include "core/constraint.hh"

namespace dhdl {
namespace {

/**
 * Constraint::eval is the one general constraint evaluator; the
 * design-space sampler's divisibility fast paths must reproduce it.
 * This table pins its semantics at the edges: a side that overflows,
 * divides by zero or reads a parameter outside the binding makes the
 * constraint unsatisfied, whatever the comparison.
 */
TEST(ConstraintEvalTest, SemanticsTable)
{
    const CExpr p0 = CExpr::p(0), p1 = CExpr::p(1);
    const CExpr big = CExpr::c(INT64_MAX), small = CExpr::c(INT64_MIN);
    const struct {
        const char* what;
        Constraint c;
        std::vector<int64_t> binding;
        bool holds;
    } cases[] = {
        {"add in range", p0 + p1 == CExpr::c(5), {2, 3}, true},
        {"add overflow", p0 + p1 >= CExpr::c(0), {INT64_MAX, 1}, false},
        {"add overflow low", p0 + p1 <= CExpr::c(0), {INT64_MIN, -1},
         false},
        {"sub in range", p0 - p1 == CExpr::c(-1), {2, 3}, true},
        {"sub overflow", p0 - p1 <= CExpr::c(0), {INT64_MIN, 1}, false},
        {"sub overflow high", p0 - p1 >= CExpr::c(0), {INT64_MAX, -1},
         false},
        {"mul in range", p0 * p1 == CExpr::c(-6), {2, -3}, true},
        {"mul overflow", p0 * p1 != CExpr::c(0), {INT64_MAX, 2}, false},
        {"mul overflow sign", p0 * p1 != CExpr::c(0), {INT64_MIN, -1},
         false},
        {"div in range", p0 / p1 == CExpr::c(-2), {7, -3}, true},
        {"div by zero", p0 / p1 != CExpr::c(1), {7, 0}, false},
        {"mod in range", p0 % p1 == CExpr::c(-1), {-7, 3}, true},
        {"mod by zero", p0 % p1 != CExpr::c(1), {7, 0}, false},
        {"INT64_MIN / -1", small / p0 != CExpr::c(0), {-1}, false},
        {"INT64_MIN % -1", small % p0 == CExpr::c(0), {-1}, false},
        {"INT64_MIN / 1", small / p0 == small, {1}, true},
        {"INT64_MAX % -1", big % p0 == CExpr::c(0), {-1}, true},
        {"param past binding", p1 == CExpr::c(0), {0}, false},
        {"param on rhs past binding", CExpr::c(0) == p1, {0}, false},
        {"empty binding", p0 != CExpr::c(1), {}, false},
        {"negative param id", CExpr::p(-1) != CExpr::c(1), {0}, false},
        {"==", p0 == p1, {4, 4}, true},
        {"== false", p0 == p1, {4, 5}, false},
        {"!=", p0 != p1, {4, 5}, true},
        {"!= false", p0 != p1, {4, 4}, false},
        {"<", p0 < p1, {INT64_MIN, INT64_MAX}, true},
        {"< false", p0 < p1, {4, 4}, false},
        {"<=", p0 <= p1, {4, 4}, true},
        {"<= false", p0 <= p1, {5, 4}, false},
        {">", p0 > p1, {INT64_MAX, INT64_MIN}, true},
        {"> false", p0 > p1, {4, 4}, false},
        {">=", p0 >= p1, {4, 4}, true},
        {">= false", p0 >= p1, {3, 4}, false},
    };
    for (const auto& t : cases) {
        ParamBinding b{t.binding};
        EXPECT_EQ(t.c.eval(b), t.holds) << t.what << ": " << t.c.str();
        // A side that fails to evaluate fails every comparison.
        if (!t.c.lhs.eval(b) || !t.c.rhs.eval(b)) {
            for (CCmp cmp : {CCmp::Eq, CCmp::Ne, CCmp::Lt, CCmp::Le,
                             CCmp::Gt, CCmp::Ge})
                EXPECT_FALSE((Constraint{t.c.lhs, cmp, t.c.rhs}.eval(b)))
                    << t.what << " under " << cmpName(cmp);
        }
    }
}

} // namespace
} // namespace dhdl
