/**
 * @file
 * Parser for the canonical `.dhdl` IR text emitted by emitIR()
 * (core/printer.hh). Reconstructs a Graph byte-identically: for any
 * builder-produced graph g, parseIR(emitIR(g)) succeeds and the
 * round-tripped graph re-emits the exact same bytes.
 *
 * The parser is hardened against hostile input: it never aborts and
 * never exhibits UB. Malformed, truncated, oversized or structurally
 * inconsistent files (dangling references, parent cycles, children
 * that disagree with parent links) produce a Status carrying a
 * structured Diag with DiagCode::ParseError naming the offending line,
 * or the node or statement when the fault spans lines. Node lines are
 * read through the per-kind field table of core/irschema.hh. See
 * DESIGN.md for the grammar.
 */

#ifndef DHDL_CORE_PARSER_HH
#define DHDL_CORE_PARSER_HH

#include <optional>
#include <string>
#include <string_view>

#include "core/diag.hh"
#include "core/graph.hh"

namespace dhdl {

/** Outcome of a parse: a graph on success, a diagnostic on failure. */
struct ParseResult {
    Status status;
    /** Engaged exactly when status.ok(). */
    std::optional<Graph> graph;

    bool ok() const { return status.ok(); }
};

/** Parse `.dhdl` IR text into a fresh graph. Never throws. */
ParseResult parseIR(std::string_view text);

/** Read and parse a `.dhdl` file. Unreadable files are a ParseError. */
ParseResult parseIRFile(const std::string& path);

} // namespace dhdl

#endif // DHDL_CORE_PARSER_HH
