/**
 * @file
 * Two renderings of a DHDL graph:
 *
 *  - printGraph(): human-readable indented hierarchy for examples and
 *    reports. Lossy by design (iterators and wiring details elided).
 *  - emitIR(): the canonical `.dhdl` text form. Deterministic, prints
 *    every field of every node (as listed in core/irschema.hh), and is
 *    parsed back byte-identically by core/parser (see DESIGN.md). This is the on-disk
 *    interchange format of the whole toolchain: `dhdlc emit-ir` writes
 *    it and every dhdlc command accepts it in place of an app name.
 */

#ifndef DHDL_CORE_PRINTER_HH
#define DHDL_CORE_PRINTER_HH

#include <string>

#include "core/graph.hh"

namespace dhdl {

/** Render a graph as an indented hierarchy. */
std::string printGraph(const Graph& g);

/** Render one symbolic size, e.g. "1536" or "$tileSize". */
std::string symStr(const Graph& g, const Sym& s);

/**
 * Serialize a graph to canonical `.dhdl` IR text. Total (never throws
 * on a builder-produced graph) and deterministic: the same graph
 * always yields the same bytes, and parseIR(emitIR(g)) reconstructs a
 * graph whose emitIR() is byte-identical.
 */
std::string emitIR(const Graph& g);

} // namespace dhdl

#endif // DHDL_CORE_PRINTER_HH
