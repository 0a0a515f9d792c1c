/**
 * @file
 * The `.dhdl` form of every node kind, declared once: a keyword and
 * the fields of `node %<id> <keyword> "<name>" parent=<ref> <key>=<value>
 * ...` in order. emitIR prints by walking this table, parseIR reads by
 * walking it and then checks every reference against its field's Rule.
 */

#ifndef DHDL_CORE_IRSCHEMA_HH
#define DHDL_CORE_IRSCHEMA_HH

#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/graph.hh"

namespace dhdl::ir {

/** How a field's value is spelled in the IR. */
enum class FieldType : uint8_t {
    Ref,     //!< `%<id>` or `_`
    RefList, //!< `[<ref>,...]`
    Sym,     //!< `7`, `$2`, `$2+4` or `$2-1`
    SymList, //!< `[<sym>,...]`
    DType,   //!< `f32`, `u8`, `fix<16,16>`, ...
    Double,  //!< shortest form that round-trips
    Int,     //!< integer in [0, kMaxFieldInt]
    Op,      //!< opName()
    Pattern, //!< patternName()
    CtrDims, //!< `[<min>:<max>:<step>,...]`
};

/** C++ member type behind each FieldType, indexed by its value. */
using FieldStorage =
    std::tuple<NodeId, std::vector<NodeId>, dhdl::Sym, std::vector<dhdl::Sym>,
               dhdl::DType, double, int, dhdl::Op, dhdl::Pattern,
               std::vector<CtrDim>>;

template <FieldType T>
using StorageOf = std::tuple_element_t<size_t(T), FieldStorage>;

/** Upper bound of an Int field (a counter dimension, a bank count). */
inline constexpr int64_t kMaxFieldInt = int64_t(1) << 20;

/** Kind of node a reference must point at. */
enum class Target : uint8_t { Any, Memory, Counter, OffChip };

/**
 * What a field may hold beyond its spelling. A data operand (prim
 * input, load/store address, stored value, transfer base) must point
 * at a strictly earlier node: the builder only makes such graphs, and
 * constant folding, the functional simulator and critical-path
 * analysis rely on it, so a forward or self data edge from a hostile
 * file could drive a traversal in circles.
 */
struct Rule {
    bool optional = false; //!< Ref: may be `_`.
    bool data = false;     //!< Ref: a data operand.
    Target target = Target::Any;
    bool nonEmpty = false; //!< List: at least one entry.
};

/** One ` key=value` of a node line. */
struct Field {
    const char* key;
    FieldType type;
    Rule rule;
    /** Address of the field's member in a node of the owning kind. */
    void* (*at)(Node&);
};

/** Typed access to a field of a node of the field's kind. */
template <FieldType T>
StorageOf<T>&
get(const Field& f, Node& n)
{
    return *static_cast<StorageOf<T>*>(f.at(n));
}

template <FieldType T>
const StorageOf<T>&
get(const Field& f, const Node& n)
{
    return get<T>(f, const_cast<Node&>(n));
}

/** The IR form of one node kind. */
struct KindSchema {
    NodeKind kind;
    const char* keyword;
    std::span<const Field> fields;
    /** Append a node of this kind; every listed field is overwritten. */
    Node& (*make)(Graph&, std::string name);
    /** Recompute unlisted fields from listed ones (may be null). */
    void (*derive)(Node&) = nullptr;
    /**
     * Check that needs more than one field, run once every reference
     * has passed its Rule; returns why the node is bad or null.
     */
    const char* (*check)(const Graph&, const Node&) = nullptr;
};

/** The integer fields of a `param` line, in order, after its kind. */
inline constexpr std::pair<const char*, int64_t ParamDef::*> kParamInts[] = {
    {"default", &ParamDef::defaultValue},
    {"divisor_of", &ParamDef::divisorOf},
    {"min", &ParamDef::minValue},
    {"max", &ParamDef::maxValue},
};

/** Schema of a node kind. */
const KindSchema& schemaOf(NodeKind k);

/** Schema whose keyword is `keyword`; null when there is none. */
const KindSchema* schemaOf(std::string_view keyword);

/** IR spelling of a parameter kind: tile, par, toggle, fixed. */
const char* paramKindName(ParamKind k);

/** IR spelling of a parallel pattern: map, reduce. */
const char* patternName(Pattern p);

} // namespace dhdl::ir

#endif // DHDL_CORE_IRSCHEMA_HH
