#include "core/validate.hh"

#include <sstream>

namespace dhdl {

namespace {

/** Expected operand count for each op; -1 means variable. */
int
arity(Op op)
{
    switch (op) {
      case Op::Const:
      case Op::Iter:
        return 0;
      case Op::Not:
      case Op::Abs:
      case Op::Neg:
      case Op::Sqrt:
      case Op::Exp:
      case Op::Log:
      case Op::ToFloat:
      case Op::ToFixed:
        return 1;
      case Op::Mux:
        return 3;
      default:
        return 2;
    }
}

class Validator
{
  public:
    explicit Validator(const Graph& g) : g_(g) {}

    std::vector<std::string>
    run()
    {
        if (g_.root == kNoNode) {
            err(kNoNode, "design has no accel() body");
            return errors_;
        }
        if (!g_.node(g_.root).isController())
            err(g_.root, "root is not a controller");
        for (NodeId id = 0; id < NodeId(g_.numNodes()); ++id)
            checkNode(id);
        return errors_;
    }

  private:
    void
    err(NodeId id, const std::string& msg)
    {
        std::ostringstream os;
        if (id != kNoNode) {
            const Node& n = g_.node(id);
            os << kindName(n.kind()) << " '" << n.name() << "' (#" << id
               << "): ";
        }
        os << msg;
        errors_.push_back(os.str());
    }

    void
    checkOperand(NodeId user, NodeId input, const char* what)
    {
        if (input == kNoNode) {
            err(user, std::string("missing ") + what);
            return;
        }
        if (input >= NodeId(g_.numNodes())) {
            err(user, std::string("dangling ") + what);
            return;
        }
        if (input >= user)
            err(user, std::string(what) +
                " does not dominate its use (cycle?)");
    }

    void
    checkNode(NodeId id)
    {
        const Node& n = g_.node(id);
        switch (n.kind()) {
          case NodeKind::Prim:
            checkPrim(g_.nodeAs<PrimNode>(id));
            break;
          case NodeKind::Load:
            checkLoad(g_.nodeAs<LoadNode>(id));
            break;
          case NodeKind::Store:
            checkStore(g_.nodeAs<StoreNode>(id));
            break;
          case NodeKind::Pipe:
          case NodeKind::Sequential:
          case NodeKind::ParallelCtrl:
          case NodeKind::MetaPipe:
            checkController(g_.nodeAs<ControllerNode>(id));
            break;
          case NodeKind::TileLd:
            checkTile(g_.nodeAs<TileLdNode>(id), "source", "destination");
            break;
          case NodeKind::TileSt:
            checkTile(g_.nodeAs<TileStNode>(id), "destination", "source");
            break;
          case NodeKind::OffChipMem:
          case NodeKind::Bram:
            for (const Sym& d : g_.nodeAs<MemNode>(id).dims)
                checkSize(id, d, "memory dimension");
            break;
          case NodeKind::Queue:
            checkSize(id, g_.nodeAs<QueueNode>(id).depth, "queue depth");
            break;
          case NodeKind::Counter:
            // min and max may be 0; a step below 1 never advances.
            for (const CtrDim& d : g_.nodeAs<CounterNode>(id).dims)
                checkSize(id, d.step, "counter step");
            break;
          default:
            break;
        }
    }

    /**
     * A size must be at least 1: a constant as written, a parameter
     * size at its smallest legal value plus the offset.
     */
    void
    checkSize(NodeId id, const Sym& s, const char* what)
    {
        if (!s.isParam()) {
            if (s.constant() < 1)
                err(id, std::string(what) + " " +
                            std::to_string(s.constant()) + " is below 1");
            return;
        }
        const std::string& name = g_.params()[s.param()].name;
        const int64_t lo = g_.params().legalValues(s.param()).front();
        int64_t v = 0;
        if (__builtin_add_overflow(lo, s.offset(), &v) ? s.offset() < 0
                                                       : v < 1)
            err(id, std::string(what) + " can bind below 1: parameter '" +
                        name + "' may be " +
                        std::to_string(lo));
    }

    void
    checkPrim(const PrimNode& n)
    {
        int want = arity(n.op);
        if (want >= 0 && int(n.inputs.size()) != want)
            err(n.id(), "operand count mismatch");
        for (NodeId in : n.inputs)
            checkOperand(n.id(), in, "operand");
        if (n.op == Op::Iter && n.counter == kNoNode)
            err(n.id(), "iterator without a counter");
    }

    void
    checkLoad(const LoadNode& n)
    {
        const auto* m = g_.tryAs<MemNode>(n.mem);
        if (!m) {
            err(n.id(), "load from a non-memory node");
            return;
        }
        if (m->kind() == NodeKind::OffChipMem)
            err(n.id(), "Ld may not access OffChipMem; use TileLd");
        if (n.addr.size() != m->dims.size())
            err(n.id(), "address arity does not match memory rank");
        for (NodeId a : n.addr)
            checkOperand(n.id(), a, "address");
    }

    void
    checkStore(const StoreNode& n)
    {
        const auto* m = g_.tryAs<MemNode>(n.mem);
        if (!m) {
            err(n.id(), "store to a non-memory node");
            return;
        }
        if (m->kind() == NodeKind::OffChipMem)
            err(n.id(), "St may not access OffChipMem; use TileSt");
        if (n.addr.size() != m->dims.size())
            err(n.id(), "address arity does not match memory rank");
        for (NodeId a : n.addr)
            checkOperand(n.id(), a, "address");
        checkOperand(n.id(), n.value, "stored value");
    }

    void
    checkController(const ControllerNode& c)
    {
        bool is_pipe = c.kind() == NodeKind::Pipe;
        for (NodeId ch : c.children) {
            const Node& n = g_.node(ch);
            if (n.parent != c.id())
                err(ch, "child/parent link mismatch");
            if (is_pipe) {
                if (n.isController() || n.isTileTransfer() ||
                    n.kind() == NodeKind::Bram)
                    err(ch, "Pipe bodies may only contain primitives");
            } else {
                bool iter_or_const =
                    n.kind() == NodeKind::Prim &&
                    (g_.nodeAs<PrimNode>(ch).op == Op::Iter ||
                     g_.nodeAs<PrimNode>(ch).op == Op::Const);
                if (n.isPrimitive() && !iter_or_const)
                    err(ch, "datapath primitive outside a Pipe");
            }
        }
        if (c.pattern == Pattern::Reduce) {
            if (c.accum == kNoNode)
                err(c.id(), "Reduce controller without accumulator");
            else if (!g_.node(c.accum).isMemory())
                err(c.id(), "Reduce accumulator is not a memory");
            if (c.bodyResult == kNoNode)
                err(c.id(), "Reduce controller without a body result");
            if (c.kind() == NodeKind::MetaPipe && c.accum != kNoNode &&
                c.bodyResult != kNoNode) {
                const auto* acc = g_.tryAs<MemNode>(c.accum);
                const auto* res = g_.tryAs<MemNode>(c.bodyResult);
                if (acc && res && acc->dims.size() != res->dims.size())
                    err(c.id(), "tile reduce rank mismatch");
            }
        }
        if (c.kind() == NodeKind::ParallelCtrl && c.counter != kNoNode)
            err(c.id(), "Parallel containers cannot carry a counter");
    }

    /**
     * TileLd moves an OffChipMem tile into a BRAM, TileSt moves it
     * back; `off_role`/`on_role` name the two ends in messages.
     */
    template <class T>
    void
    checkTile(const T& n, const char* off_role, const char* on_role)
    {
        const std::string k = kindName(n.kind());
        const auto* off = g_.tryAs<OffChipMemNode>(n.offchip);
        const auto* bram = g_.tryAs<BramNode>(n.onchip);
        if (!off)
            err(n.id(), k + " " + off_role + " is not an OffChipMem");
        if (!bram)
            err(n.id(), k + " " + on_role + " is not a BRAM");
        if (off && n.extent.size() != off->dims.size())
            err(n.id(), k + " extent rank != off-chip rank");
        if (bram && n.extent.size() != bram->dims.size())
            err(n.id(), k + " extent rank != BRAM rank");
        for (const Sym& e : n.extent)
            checkSize(n.id(), e, "tile extent");
        for (NodeId b : n.base) {
            if (b != kNoNode)
                checkOperand(n.id(), b, "tile base address");
        }
    }

    const Graph& g_;
    std::vector<std::string> errors_;
};

} // namespace

std::vector<std::string>
validate(const Graph& g)
{
    return Validator(g).run();
}

void
validateOrThrow(const Graph& g)
{
    auto errs = validate(g);
    if (errs.empty())
        return;
    std::ostringstream os;
    os << "invalid DHDL design '" << g.name() << "':";
    for (const auto& e : errs)
        os << "\n  " << e;
    fatal(os.str());
}

} // namespace dhdl
