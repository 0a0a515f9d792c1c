/**
 * @file
 * Structural validation of DHDL graphs. Catches malformed designs
 * (user errors) before analysis or simulation: controller nesting
 * rules, operand arity, address arity, reduce wiring, acyclicity, and
 * constant sizes (memory dims, tile extents, queue depths, counter
 * steps) of at least 1.
 */

#ifndef DHDL_CORE_VALIDATE_HH
#define DHDL_CORE_VALIDATE_HH

#include <string>
#include <vector>

#include "core/graph.hh"

namespace dhdl {

/**
 * Validate a graph; returns the list of violations (empty = valid).
 * Each entry is a human-readable message naming the offending node.
 */
std::vector<std::string> validate(const Graph& g);

/** Validate and throw FatalError with all messages if invalid. */
void validateOrThrow(const Graph& g);

} // namespace dhdl

#endif // DHDL_CORE_VALIDATE_HH
