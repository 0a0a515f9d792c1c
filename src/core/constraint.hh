/**
 * @file
 * Structured cross-parameter constraints. The design space pruning
 * rules of Section IV-C ("legal values divide the tile size they
 * iterate over") used to be captured as opaque C++ closures on the
 * Graph, which made a design impossible to serialize: a `.dhdl` file
 * round-tripped through the parser would silently lose its pruning
 * rules and explore a different (larger) space.
 *
 * A Constraint is instead a small arithmetic expression tree over
 * int64 — constants, parameter references, + - * / %, compared with
 * one of == != < <= > >= — which the printer can emit and the parser
 * can rebuild exactly. Evaluation is total: division by zero and
 * signed overflow make the constraint unsatisfied instead of raising
 * UB, so hostile `.dhdl` inputs cannot crash the explorer.
 */

#ifndef DHDL_CORE_CONSTRAINT_HH
#define DHDL_CORE_CONSTRAINT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/param.hh"

namespace dhdl {

/** Arithmetic operator of an interior constraint-expression node. */
enum class CArith : uint8_t { Add, Sub, Mul, Div, Mod };

/** Comparison operator of a constraint. */
enum class CCmp : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/** Token of a CArith, e.g. "%". */
const char* arithName(CArith op);

/** Token of a CCmp, e.g. "<=". */
const char* cmpName(CCmp op);

/** True when `l op r` holds. */
inline bool
cmpHolds(CCmp op, int64_t l, int64_t r)
{
    switch (op) {
      case CCmp::Eq: return l == r;
      case CCmp::Ne: return l != r;
      case CCmp::Lt: return l < r;
      case CCmp::Le: return l <= r;
      case CCmp::Gt: return l > r;
      case CCmp::Ge: return l >= r;
    }
    return false;
}

/**
 * Constraint expression: a constant, a parameter reference, or a
 * binary arithmetic node. Interior children are shared immutably, so
 * copies are cheap and the type is value-semantic.
 */
class CExpr
{
  public:
    enum class Kind : uint8_t { Const, Param, Arith };

    /** Default: the constant 0. */
    CExpr() = default;

    /** Constant expression. */
    static CExpr
    c(int64_t v)
    {
        CExpr e;
        e.kind_ = Kind::Const;
        e.value_ = v;
        return e;
    }

    /** Parameter reference expression. */
    static CExpr
    p(ParamId id)
    {
        CExpr e;
        e.kind_ = Kind::Param;
        e.param_ = id;
        return e;
    }

    /** Binary arithmetic expression. */
    static CExpr arith(CArith op, CExpr lhs, CExpr rhs);

    Kind kind() const { return kind_; }

    /** Constant value; only meaningful for Kind::Const. */
    int64_t value() const { return value_; }

    /** Referenced parameter; only meaningful for Kind::Param. */
    ParamId param() const { return param_; }

    /** Operator / children; only meaningful for Kind::Arith. */
    CArith op() const { return op_; }
    const CExpr& lhs() const;
    const CExpr& rhs() const;

    /**
     * Evaluate under a binding. Returns nullopt on division or
     * modulo by zero, on signed overflow, or on a parameter
     * reference outside the binding — never UB, never a throw.
     */
    std::optional<int64_t> eval(const ParamBinding& b) const;

    /**
     * Canonical text: fully parenthesized, parameters as `$<id>`,
     * e.g. "(($0 + 4) * 32)". Parsed back by core/parser.
     */
    std::string str() const;

    /** Largest referenced ParamId; kNoParam when none. */
    ParamId maxParam() const;

  private:
    Kind kind_ = Kind::Const;
    int64_t value_ = 0;
    ParamId param_ = kNoParam;
    CArith op_ = CArith::Add;
    std::shared_ptr<const CExpr> lhs_, rhs_;
};

/** One legality constraint: `lhs cmp rhs` must hold. */
struct Constraint {
    CExpr lhs;
    CCmp cmp = CCmp::Eq;
    CExpr rhs;

    /**
     * True when the comparison holds under the binding. A side that
     * fails to evaluate (overflow, division by zero, bad parameter)
     * makes the constraint unsatisfied.
     */
    bool eval(const ParamBinding& b) const;

    /** Canonical text, e.g. "($0 % $2) == 0". */
    std::string str() const;

    /** Largest ParamId referenced by either side; kNoParam if none. */
    ParamId maxParam() const;
};

// ---- Expression-building DSL ---------------------------------------------
//
// Apps write constraints almost as before, swapping b[p] for
// CExpr::p(p):
//
//   d.constrain(CExpr::p(ts) % CExpr::p(par) == 0);
//   d.constrain((CExpr::c(n) / CExpr::p(ts)) % CExpr::p(outer) == 0);

inline CExpr
operator+(CExpr a, CExpr b)
{
    return CExpr::arith(CArith::Add, std::move(a), std::move(b));
}

inline CExpr
operator-(CExpr a, CExpr b)
{
    return CExpr::arith(CArith::Sub, std::move(a), std::move(b));
}

inline CExpr
operator*(CExpr a, CExpr b)
{
    return CExpr::arith(CArith::Mul, std::move(a), std::move(b));
}

inline CExpr
operator/(CExpr a, CExpr b)
{
    return CExpr::arith(CArith::Div, std::move(a), std::move(b));
}

inline CExpr
operator%(CExpr a, CExpr b)
{
    return CExpr::arith(CArith::Mod, std::move(a), std::move(b));
}

inline CExpr operator+(CExpr a, int64_t b) { return std::move(a) + CExpr::c(b); }
inline CExpr operator-(CExpr a, int64_t b) { return std::move(a) - CExpr::c(b); }
inline CExpr operator*(CExpr a, int64_t b) { return std::move(a) * CExpr::c(b); }
inline CExpr operator/(CExpr a, int64_t b) { return std::move(a) / CExpr::c(b); }
inline CExpr operator%(CExpr a, int64_t b) { return std::move(a) % CExpr::c(b); }
inline CExpr operator+(int64_t a, CExpr b) { return CExpr::c(a) + std::move(b); }
inline CExpr operator-(int64_t a, CExpr b) { return CExpr::c(a) - std::move(b); }
inline CExpr operator*(int64_t a, CExpr b) { return CExpr::c(a) * std::move(b); }
inline CExpr operator/(int64_t a, CExpr b) { return CExpr::c(a) / std::move(b); }
inline CExpr operator%(int64_t a, CExpr b) { return CExpr::c(a) % std::move(b); }

inline Constraint
operator==(CExpr a, CExpr b)
{
    return Constraint{std::move(a), CCmp::Eq, std::move(b)};
}

inline Constraint
operator!=(CExpr a, CExpr b)
{
    return Constraint{std::move(a), CCmp::Ne, std::move(b)};
}

inline Constraint
operator<(CExpr a, CExpr b)
{
    return Constraint{std::move(a), CCmp::Lt, std::move(b)};
}

inline Constraint
operator<=(CExpr a, CExpr b)
{
    return Constraint{std::move(a), CCmp::Le, std::move(b)};
}

inline Constraint
operator>(CExpr a, CExpr b)
{
    return Constraint{std::move(a), CCmp::Gt, std::move(b)};
}

inline Constraint
operator>=(CExpr a, CExpr b)
{
    return Constraint{std::move(a), CCmp::Ge, std::move(b)};
}

inline Constraint operator==(CExpr a, int64_t b) { return std::move(a) == CExpr::c(b); }
inline Constraint operator!=(CExpr a, int64_t b) { return std::move(a) != CExpr::c(b); }
inline Constraint operator<(CExpr a, int64_t b) { return std::move(a) < CExpr::c(b); }
inline Constraint operator<=(CExpr a, int64_t b) { return std::move(a) <= CExpr::c(b); }
inline Constraint operator>(CExpr a, int64_t b) { return std::move(a) > CExpr::c(b); }
inline Constraint operator>=(CExpr a, int64_t b) { return std::move(a) >= CExpr::c(b); }

} // namespace dhdl

#endif // DHDL_CORE_CONSTRAINT_HH
