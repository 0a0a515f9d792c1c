#include "core/constraint.hh"

#include <algorithm>

namespace dhdl {

const char*
arithName(CArith op)
{
    switch (op) {
      case CArith::Add: return "+";
      case CArith::Sub: return "-";
      case CArith::Mul: return "*";
      case CArith::Div: return "/";
      case CArith::Mod: return "%";
    }
    return "?";
}

const char*
cmpName(CCmp op)
{
    switch (op) {
      case CCmp::Eq: return "==";
      case CCmp::Ne: return "!=";
      case CCmp::Lt: return "<";
      case CCmp::Le: return "<=";
      case CCmp::Gt: return ">";
      case CCmp::Ge: return ">=";
    }
    return "?";
}

CExpr
CExpr::arith(CArith op, CExpr lhs, CExpr rhs)
{
    CExpr e;
    e.kind_ = Kind::Arith;
    e.op_ = op;
    e.lhs_ = std::make_shared<const CExpr>(std::move(lhs));
    e.rhs_ = std::make_shared<const CExpr>(std::move(rhs));
    return e;
}

const CExpr&
CExpr::lhs() const
{
    invariant(lhs_ != nullptr, "CExpr::lhs() on a leaf");
    return *lhs_;
}

const CExpr&
CExpr::rhs() const
{
    invariant(rhs_ != nullptr, "CExpr::rhs() on a leaf");
    return *rhs_;
}

std::optional<int64_t>
CExpr::eval(const ParamBinding& b) const
{
    switch (kind_) {
      case Kind::Const:
        return value_;
      case Kind::Param:
        if (param_ < 0 || size_t(param_) >= b.values.size())
            return std::nullopt;
        return b.values[size_t(param_)];
      case Kind::Arith: {
        auto l = lhs().eval(b);
        auto r = rhs().eval(b);
        if (!l || !r)
            return std::nullopt;
        int64_t out = 0;
        switch (op_) {
          case CArith::Add:
            if (__builtin_add_overflow(*l, *r, &out))
                return std::nullopt;
            return out;
          case CArith::Sub:
            if (__builtin_sub_overflow(*l, *r, &out))
                return std::nullopt;
            return out;
          case CArith::Mul:
            if (__builtin_mul_overflow(*l, *r, &out))
                return std::nullopt;
            return out;
          case CArith::Div:
            if (*r == 0 || (*l == INT64_MIN && *r == -1))
                return std::nullopt;
            return *l / *r;
          case CArith::Mod:
            if (*r == 0 || (*l == INT64_MIN && *r == -1))
                return std::nullopt;
            return *l % *r;
        }
        return std::nullopt;
      }
    }
    return std::nullopt;
}

std::string
CExpr::str() const
{
    switch (kind_) {
      case Kind::Const:
        return std::to_string(value_);
      case Kind::Param:
        return "$" + std::to_string(param_);
      case Kind::Arith:
        return "(" + lhs().str() + " " + arithName(op_) + " " +
               rhs().str() + ")";
    }
    return "?";
}

ParamId
CExpr::maxParam() const
{
    switch (kind_) {
      case Kind::Const:
        return kNoParam;
      case Kind::Param:
        return param_;
      case Kind::Arith:
        return std::max(lhs().maxParam(), rhs().maxParam());
    }
    return kNoParam;
}

bool
Constraint::eval(const ParamBinding& b) const
{
    auto l = lhs.eval(b);
    auto r = rhs.eval(b);
    return l && r && cmpHolds(cmp, *l, *r);
}

std::string
Constraint::str() const
{
    return lhs.str() + " " + cmpName(cmp) + " " + rhs.str();
}

ParamId
Constraint::maxParam() const
{
    return std::max(lhs.maxParam(), rhs.maxParam());
}

} // namespace dhdl
