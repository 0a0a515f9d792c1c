/**
 * @file
 * Design statistics over DHDL graphs, used by reports, `dhdlc print`
 * and the benches.
 */

#ifndef DHDL_CORE_TRANSFORM_HH
#define DHDL_CORE_TRANSFORM_HH

#include "core/graph.hh"

namespace dhdl {

/** Aggregate design statistics (used by reports and examples). */
struct GraphStats {
    int controllers = 0;
    int pipes = 0;
    int metaPipes = 0;
    int memories = 0;
    int offchipMems = 0;
    int transfers = 0;
    int primitives = 0;
    int maxDepth = 0; //!< Deepest controller nesting.
    int params = 0;
};

/** Compute statistics for a graph. */
GraphStats computeStats(const Graph& g);

} // namespace dhdl

#endif // DHDL_CORE_TRANSFORM_HH
