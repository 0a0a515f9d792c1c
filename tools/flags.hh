/**
 * @file
 * The flag table of dhdlc and dhdld: each entry carries the flag
 * name, its operand placeholder (nullptr for booleans) and a setter
 * that returns false for an operand it cannot take. parseFlags() and
 * usageFlags() both walk the table, so they can never disagree.
 */

#ifndef DHDL_TOOLS_FLAGS_HH
#define DHDL_TOOLS_FLAGS_HH

#include <charconv>
#include <cstring>
#include <functional>
#include <ostream>
#include <vector>

namespace dhdl::tools {

template <class Args>
struct FlagDef {
    const char* name;
    const char* operand; //!< e.g. "N"; nullptr = boolean flag.
    std::function<bool(Args&, const char*)> set;
};

/** Numeric member: the whole operand must parse, so "2k", "x" and
 *  (for unsigned members) "-1" are refused, not read as 2, 0, max. */
inline constexpr auto num = [](auto member) {
    return [member](auto& a, const char* v) {
        const char* end = v + std::strlen(v);
        auto [p, ec] = std::from_chars(v, end, a.*member);
        return ec == std::errc() && p == end;
    };
};

inline constexpr auto str = [](auto member) {
    return [member](auto& a, const char* v) {
        a.*member = v;
        return true;
    };
};

/** Boolean member: present means true. */
inline constexpr auto flag = [](auto member) {
    return [member](auto& a, const char*) {
        a.*member = true;
        return true;
    };
};

/**
 * Apply argv[i..argc) to `args`; false on an unknown flag, a missing
 * operand or a refused one.
 */
template <class Args>
bool
parseFlags(const std::vector<FlagDef<Args>>& table, int argc,
           char** argv, int i, Args& args)
{
    for (; i < argc; ++i) {
        const FlagDef<Args>* def = nullptr;
        for (const FlagDef<Args>& f : table)
            if (std::strcmp(f.name, argv[i]) == 0)
                def = &f;
        if (!def || (def->operand && i + 1 >= argc))
            return false;
        const char* v = def->operand ? argv[++i] : nullptr;
        if (!def->set(args, v))
            return false;
    }
    return true;
}

/** The table as usage text: " [--flag OPERAND]" per entry. */
template <class Args>
void
usageFlags(std::ostream& os, const std::vector<FlagDef<Args>>& table)
{
    for (const FlagDef<Args>& f : table)
        os << " [" << f.name << (f.operand ? " " : "")
           << (f.operand ? f.operand : "") << "]";
}

} // namespace dhdl::tools

#endif // DHDL_TOOLS_FLAGS_HH
