#include "core/irschema.hh"

#include <type_traits>

namespace dhdl::ir {
namespace {

using F = FieldType;

/** Declared only, to name a member pointer's class and type. */
template <class C, class T>
C classOf(T C::*);
template <class C, class T>
T typeOf(T C::*);

template <auto M>
void*
memberAt(Node& n)
{
    return &(static_cast<decltype(classOf(M))&>(n).*M);
}

/** Table entry for member M, spelled as T. */
template <FieldType T, auto M>
constexpr Field
field(const char* key, Rule rule = {})
{
    static_assert(std::is_same_v<decltype(typeOf(M)), StorageOf<T>>,
                  "field type does not match the member's type");
    return {key, T, rule, &memberAt<M>};
}

/** Construct N with placeholder arguments of the given types. */
template <class N, class... Args>
Node&
create(Graph& g, std::string name)
{
    return g.make<N>(std::move(name), Args{}...);
}

constexpr Field kPrim[] = {
    field<F::Op, &PrimNode::op>("op"),
    field<F::DType, &PrimNode::type>("type"),
    field<F::Double, &PrimNode::constValue>("val"),
    field<F::RefList, &PrimNode::inputs>("in", {.data = true}),
    field<F::Ref, &PrimNode::counter>(
        "ctr", {.optional = true, .target = Target::Counter}),
    field<F::Int, &PrimNode::ctrDim>("dim"),
};

constexpr Field kLoad[] = {
    field<F::Ref, &LoadNode::mem>("mem", {.target = Target::Memory}),
    field<F::DType, &LoadNode::type>("type"),
    field<F::RefList, &LoadNode::addr>("addr", {.data = true}),
};

constexpr Field kStore[] = {
    field<F::Ref, &StoreNode::mem>("mem", {.target = Target::Memory}),
    field<F::Ref, &StoreNode::value>("value", {.data = true}),
    field<F::RefList, &StoreNode::addr>("addr", {.data = true}),
};

constexpr Field kOffChip[] = {
    field<F::DType, &OffChipMemNode::type>("type"),
    field<F::SymList, &OffChipMemNode::dims>("dims", {.nonEmpty = true}),
};

constexpr Field kBram[] = {
    field<F::DType, &BramNode::type>("type"),
    field<F::SymList, &BramNode::dims>("dims", {.nonEmpty = true}),
    field<F::Int, &BramNode::forcedBanks>("banks"),
};

constexpr Field kReg[] = {
    field<F::DType, &RegNode::type>("type"),
    field<F::Double, &RegNode::init>("init"),
};

constexpr Field kQueue[] = {
    field<F::DType, &QueueNode::type>("type"),
    field<F::Sym, &QueueNode::depth>("depth"),
};

constexpr Field kCounter[] = {
    field<F::CtrDims, &CounterNode::dims>("dims", {.nonEmpty = true}),
};

constexpr Field kController[] = {
    field<F::Ref, &ControllerNode::counter>(
        "counter", {.optional = true, .target = Target::Counter}),
    field<F::Sym, &ControllerNode::par>("par"),
    field<F::Sym, &ControllerNode::toggle>("toggle"),
    field<F::Pattern, &ControllerNode::pattern>("pattern"),
    field<F::Op, &ControllerNode::combine>("combine"),
    field<F::Ref, &ControllerNode::accum>("accum", {.optional = true}),
    field<F::Ref, &ControllerNode::bodyResult>("body", {.optional = true}),
    field<F::RefList, &ControllerNode::children>("children"),
};

/** TileLd and TileSt: the same fields on two classes. */
template <class T>
constexpr Field kTile[] = {
    field<F::Ref, &T::offchip>("off", {.target = Target::OffChip}),
    field<F::Ref, &T::onchip>("on", {.target = Target::Memory}),
    field<F::RefList, &T::base>("base", {.optional = true, .data = true}),
    field<F::SymList, &T::extent>("extent"),
    field<F::Sym, &T::par>("par"),
};

/** A Queue is one-dimensional with its depth as the extent. */
void
deriveQueue(Node& n)
{
    auto& q = static_cast<QueueNode&>(n);
    q.dims = {q.depth};
}

/** An iterator names a counter and one of its dimensions. */
const char*
checkPrim(const Graph& g, const Node& n)
{
    const auto& p = static_cast<const PrimNode&>(n);
    if (p.counter == kNoNode)
        return p.op == Op::Iter ? "iter prim needs a counter" : nullptr;
    if (size_t(p.ctrDim) >= g.nodeAs<CounterNode>(p.counter).dims.size())
        return "counter dimension out of range";
    return nullptr;
}

/** Indexed by NodeKind. */
constexpr KindSchema kKinds[] = {
    {NodeKind::Prim, "prim", kPrim, create<PrimNode, Op, DType>, nullptr,
     checkPrim},
    {NodeKind::Load, "ld", kLoad, create<LoadNode, NodeId, DType>},
    {NodeKind::Store, "st", kStore, create<StoreNode, NodeId, NodeId>},
    {NodeKind::OffChipMem, "offchipmem", kOffChip,
     create<OffChipMemNode, DType, std::vector<Sym>>},
    {NodeKind::Bram, "bram", kBram, create<BramNode, DType, std::vector<Sym>>},
    {NodeKind::Reg, "reg", kReg, create<RegNode, DType>},
    {NodeKind::Queue, "queue", kQueue, create<QueueNode, DType, Sym>,
     deriveQueue},
    {NodeKind::Counter, "counter", kCounter,
     create<CounterNode, std::vector<CtrDim>>},
    {NodeKind::Pipe, "pipe", kController, create<PipeNode>},
    {NodeKind::Sequential, "seq", kController, create<SequentialNode>},
    {NodeKind::ParallelCtrl, "parallel", kController, create<ParallelNode>},
    {NodeKind::MetaPipe, "metapipe", kController, create<MetaPipeNode>},
    {NodeKind::TileLd, "tileld", kTile<TileLdNode>,
     create<TileLdNode, NodeId, NodeId>},
    {NodeKind::TileSt, "tilest", kTile<TileStNode>,
     create<TileStNode, NodeId, NodeId>},
};

constexpr bool
inKindOrder()
{
    for (size_t i = 0; i < std::size(kKinds); ++i) {
        if (size_t(kKinds[i].kind) != i)
            return false;
    }
    return std::size(kKinds) == size_t(NodeKind::TileSt) + 1;
}
static_assert(inKindOrder(), "kKinds must list every NodeKind in order");

} // namespace

const KindSchema&
schemaOf(NodeKind k)
{
    return kKinds[size_t(k)];
}

const KindSchema*
schemaOf(std::string_view keyword)
{
    for (const KindSchema& k : kKinds) {
        if (keyword == k.keyword)
            return &k;
    }
    return nullptr;
}

const char*
paramKindName(ParamKind k)
{
    static const char* const kNames[] = {"tile", "par", "toggle", "fixed"};
    return kNames[size_t(k)];
}

const char*
patternName(Pattern p)
{
    return p == Pattern::Reduce ? "reduce" : "map";
}

} // namespace dhdl::ir
