/**
 * @file
 * The design parameter space and the paper's pruning heuristics
 * (Section IV-C):
 *
 *  - parallelization factors are integer divisors of trip counts;
 *  - tile sizes are divisors of the annotated data dimensions;
 *  - banking is inferred automatically, not explored;
 *  - each local memory is capped at a fixed maximum size;
 *
 * together defining the "legal" subspace that is randomly sampled
 * (up to 75,000 points in the paper's experiments).
 */

#ifndef DHDL_DSE_SPACE_HH
#define DHDL_DSE_SPACE_HH

#include <span>

#include "analysis/instance.hh"
#include "core/diag.hh"

namespace dhdl::dse {

/** Maximum size of a single on-chip memory, in bits. */
inline constexpr int64_t kMaxLocalMemBits = int64_t(4) << 20;

/** Enumeration and sampling of a design's legal parameter space. */
class ParamSpace
{
  public:
    explicit ParamSpace(const Graph& g);

    /** Total number of parameter combinations before legality. */
    double sizeEstimate() const;

    /** Number of parameters of the space. */
    size_t numParams() const { return legal_.size(); }

    /** Legal values of parameter p (pruned): a view of the graph's
     *  ParamTable store, not a copy, so the space must not outlive
     *  the graph. */
    std::span<const int64_t>
    legalValues(size_t p) const
    {
        return legal_[p];
    }

    /**
     * Structural legality of a binding: every design constraint
     * holds and every local memory is within the size cap (a size
     * whose product overflows is over it). Resource capacity is
     * checked later, against the area estimate.
     */
    bool isLegal(const ParamBinding& b) const;

    /**
     * Sample up to n distinct legal bindings. May return fewer when
     * the legal space is smaller than n (or too sparse for the
     * bounded rejection sampling to fill); the shortfall is then
     * reported on `sink` as a structured SamplingShortfall warning,
     * so no sweep silently caps its sample set.
     */
    std::vector<ParamBinding> sample(int n, uint64_t seed,
                                     DiagSink* sink = nullptr) const;

    /**
     * Total on-chip memory bits implied by a binding, summed over the
     * size-capped local memories — the same per-memory product as
     * isLegal()'s cap check, saturating at INT64_MAX on overflow.
     * Used as a surrogate search feature (dse/features).
     */
    int64_t localMemBits(const ParamBinding& b) const;

    /**
     * Exhaustively enumerate legal bindings (odometer order), up to
     * `cap` results. Used when the pruned space is small enough to
     * walk completely.
     */
    std::vector<ParamBinding> enumerate(int64_t cap) const;

  private:
    /**
     * One legality constraint as the sampler checks it. Nearly every
     * design constraint is a divisibility condition — `$a % $b cmp k`
     * or `(c / $a) % $b cmp k` — so those two shapes, recognized from
     * the expression tree, run as straight-line code with exactly
     * Constraint::eval's semantics; every other constraint goes to
     * Constraint::eval itself.
     */
    struct ConstraintCheck {
        enum class Shape : uint8_t { Generic, PModP, CDivPModP };

        Shape shape = Shape::Generic;
        CCmp cmp = CCmp::Eq;
        ParamId pa = kNoParam, pb = kNoParam;
        int64_t ca = 0;  //!< Leading constant (CDivPModP).
        int64_t rhs = 0; //!< Trailing constant comparand.
        Constraint generic; //!< Evaluated as is when Shape::Generic.

        explicit ConstraintCheck(const Constraint& c);
        bool holds(const ParamBinding& b) const;
    };

    /**
     * One local memory's size cap, flattened: the bit count is
     * `Π dims · typeBits` where every dimension is an affine Sym
     * (param + offset, or a constant). Storing the terms as plain
     * (param, constant) pairs keeps the hot mem check in isLegal()
     * off the graph entirely.
     */
    struct MemCheck {
        struct Term {
            ParamId param = kNoParam; //!< kNoParam → constant term
            int64_t c = 0;            //!< offset (param) or value
        };
        std::vector<Term> terms; //!< dims in declaration order
        int64_t typeBits = 0;

        /**
         * The memory's bits under `b`, multiplied in declaration
         * order then by typeBits; INT64_MAX when any step overflows,
         * so hostile sizes never wrap back under the cap.
         */
        int64_t bits(const ParamBinding& b) const;
    };

    std::vector<std::span<const int64_t>> legal_; //!< By parameter id.
    //!< Size-capped local memories (Bram/Queue) in node-id order,
    //!< compiled once so isLegal() skips the full node walk.
    std::vector<MemCheck> memChecks_;
    std::vector<ConstraintCheck> constraints_;
};

} // namespace dhdl::dse

#endif // DHDL_DSE_SPACE_HH
