/**
 * @file
 * Canonical text form of diagnostics for the resume tests.
 */

#ifndef DHDL_TESTS_DSE_CANONICAL_DIAGS_HH
#define DHDL_TESTS_DSE_CANONICAL_DIAGS_HH

#include <string>
#include <vector>

#include "core/diag.hh"

namespace dhdl::dse {

/**
 * pointIndex|stage|code|message per line — the comparison key for
 * resume ≡ uninterrupted byte-identity, excluding the display-only
 * fields (worker thread, context) that legitimately vary.
 */
inline std::string
canonicalDiags(const std::vector<Diag>& diags)
{
    std::string out;
    for (const Diag& d : diags) {
        out += std::to_string(d.pointIndex);
        out += '|';
        out += d.stage;
        out += '|';
        out += diagCodeName(d.code);
        out += '|';
        out += d.message;
        out += '\n';
    }
    return out;
}

} // namespace dhdl::dse

#endif // DHDL_TESTS_DSE_CANONICAL_DIAGS_HH
