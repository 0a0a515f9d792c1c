/**
 * @file
 * Design parameters. Every DHDL template is parameterized (Table I);
 * a concrete design instance is produced by binding every parameter to
 * a value. The design space explorer mutates bindings, so parameters
 * are first-class objects referenced by id rather than baked into the
 * graph (Section III: "DHDL heavily uses metaprogramming, so these
 * values are passed in as arguments to the DHDL program").
 */

#ifndef DHDL_CORE_PARAM_HH
#define DHDL_CORE_PARAM_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/error.hh"

namespace dhdl {

using ParamId = int32_t;
inline constexpr ParamId kNoParam = -1;

/** Role of a parameter in the design space (Section IV-C). */
enum class ParamKind : uint8_t {
    TileSize,  //!< On-chip buffer extent; legal values divide data size.
    ParFactor, //!< Parallelization factor; legal values divide the trip.
    Toggle,    //!< MetaPipe toggle: 0 = Sequential, 1 = MetaPipe.
    Fixed,     //!< Constant defined by the design, not explored.
};

/** Definition of one explorable design parameter. */
struct ParamDef {
    std::string name;
    ParamKind kind = ParamKind::Fixed;
    int64_t defaultValue = 1;
    /**
     * When > 0, legal values are restricted to divisors of this number
     * (the paper's pruning heuristic: non-divisor tile sizes and
     * parallelization factors create edge cases that are usually
     * suboptimal).
     */
    int64_t divisorOf = 0;
    int64_t minValue = 1;
    int64_t maxValue = INT64_MAX;
};

/** A concrete assignment of values to every parameter of a design. */
struct ParamBinding {
    std::vector<int64_t> values;

    int64_t
    operator[](ParamId p) const
    {
        invariant(p >= 0 && size_t(p) < values.size(),
                  "parameter id out of range");
        return values[size_t(p)];
    }

    int64_t&
    operator[](ParamId p)
    {
        invariant(p >= 0 && size_t(p) < values.size(),
                  "parameter id out of range");
        return values[size_t(p)];
    }
};

/**
 * The table of all parameters declared by a design. It is the one
 * owner of every parameter's legal values: add() lists them once
 * into one flat value store, and each parameter's list is a range of
 * it. Parameters whose definitions match — same kind, divisor_of,
 * bounds and default — share one range, and every definition on one
 * divisor_of n is a range of n's single divisor list, so a design
 * that repeats a costly divisor_of factors it once and stores it
 * once, whatever bounds its definitions put on it.
 */
class ParamTable
{
  public:
    ParamId add(ParamDef def);

    const ParamDef& operator[](ParamId p) const;
    size_t size() const { return defs_.size(); }

    /** Binding with every parameter at its default value. */
    ParamBinding defaults() const;

    /**
     * The legal values of a parameter under the divisor pruning
     * heuristics, sorted ascending and never empty: a view of the
     * table's own store, valid while the table lives and no
     * parameter is added (moving the table keeps it valid).
     */
    std::span<const int64_t>
    legalValues(ParamId p) const
    {
        const Range& r = legal_[checkedId(p)];
        return {values_.data() + r.offset, r.length};
    }

    /** True when the binding assigns a legal value to every param. */
    bool isLegal(const ParamBinding& b) const;

    /**
     * An upper bound on the values add() stores for a definition it
     * has not seen, besides the divisor list of its divisor_of: a
     * toggle's two, a range of at most 4097, or one — a definition on
     * a divisor_of is a range of that list or, when none of the list
     * fits its bounds, its default alone.
     */
    static int64_t listedValues(const ParamDef& d);

  private:
    using DefKey = std::tuple<ParamKind, int64_t, int64_t, int64_t,
                              int64_t>;

    /** A legal-value list: values_[offset, offset + length). */
    struct Range {
        size_t offset = 0;
        size_t length = 0;
    };

    size_t checkedId(ParamId p) const;
    Range listLegal(const ParamDef& d);
    /** Append `vals` to the store as a new range. */
    Range store(const std::vector<int64_t>& vals);

    std::vector<ParamDef> defs_;
    std::vector<int64_t> values_;  //!< Every legal-value list.
    std::vector<Range> legal_;     //!< By parameter id.
    std::map<DefKey, Range> byDef_; //!< One range per definition.
    /** divisorsOf(n)'s range, once per distinct divisor_of n. */
    std::map<int64_t, Range> divisors_;
};

/**
 * A symbolic size: a compile-time constant (dataset annotation) or an
 * affine reference to a design parameter (param + offset). Used for
 * memory dimensions, counter bounds/strides, tile extents, and
 * parallelization factors. The offset form expresses halo'd tiles
 * such as `tileRows + k - 1` in stencil designs.
 */
class Sym
{
  public:
    Sym() : param_(kNoParam), const_(1) {}

    /** Constant symbol. */
    static Sym
    c(int64_t v)
    {
        Sym s;
        s.const_ = v;
        return s;
    }

    /** Parameter reference symbol, optionally offset by a constant. */
    static Sym
    p(ParamId id, int64_t offset = 0)
    {
        Sym s;
        s.param_ = id;
        s.const_ = offset;
        return s;
    }

    bool isParam() const { return param_ != kNoParam; }
    ParamId param() const { return param_; }

    /** Constant offset added after parameter evaluation. */
    int64_t
    offset() const
    {
        return isParam() ? const_ : 0;
    }

    /** Evaluate under a binding. */
    int64_t
    eval(const ParamBinding& b) const
    {
        return isParam() ? b[param_] + const_ : const_;
    }

    /** Constant value; only valid when !isParam(). */
    int64_t
    constant() const
    {
        invariant(!isParam(), "Sym::constant() on a parameter symbol");
        return const_;
    }

  private:
    ParamId param_;
    int64_t const_;
};

/** All divisors of n in ascending order. */
std::vector<int64_t> divisorsOf(int64_t n);

/**
 * Largest divisor of n that is <= cap, preferring divisors that are
 * themselves multiples of `multiple` (useful for defaults that must
 * stay divisible by typical parallelization factors). Returns 1 when
 * nothing else qualifies.
 */
int64_t largestDivisorLE(int64_t n, int64_t cap, int64_t multiple = 1);

} // namespace dhdl

#endif // DHDL_CORE_PARAM_HH
