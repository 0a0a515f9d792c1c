#include "core/printer.hh"

#include <charconv>
#include <sstream>

#include "core/irschema.hh"

namespace dhdl {

std::string
symStr(const Graph& g, const Sym& s)
{
    if (s.isParam()) {
        std::string out = "$" + g.params()[s.param()].name;
        if (s.offset() > 0)
            out += "+" + std::to_string(s.offset());
        else if (s.offset() < 0)
            out += std::to_string(s.offset());
        return out;
    }
    return std::to_string(s.constant());
}

namespace {

class Printer
{
  public:
    explicit Printer(const Graph& g) : g_(g) {}

    std::string
    run()
    {
        os_ << "design " << g_.name() << " {\n";
        for (NodeId m : g_.offchipMems)
            printOffchip(g_.nodeAs<OffChipMemNode>(m));
        if (g_.root != kNoNode)
            printNode(g_.root, 1);
        os_ << "}\n";
        return os_.str();
    }

  private:
    void
    indent(int depth)
    {
        for (int i = 0; i < depth; ++i)
            os_ << "  ";
    }

    void
    printOffchip(const OffChipMemNode& m)
    {
        indent(1);
        os_ << "offchip " << m.name() << " : " << m.type.str() << "[";
        dims(m.dims);
        os_ << "]\n";
    }

    void
    dims(const std::vector<Sym>& ds)
    {
        for (size_t i = 0; i < ds.size(); ++i) {
            if (i)
                os_ << ", ";
            os_ << symStr(g_, ds[i]);
        }
    }

    void
    printCounter(const ControllerNode& c)
    {
        if (c.counter == kNoNode)
            return;
        const auto& ctr = g_.nodeAs<CounterNode>(c.counter);
        os_ << "(";
        for (size_t i = 0; i < ctr.dims.size(); ++i) {
            if (i)
                os_ << ", ";
            os_ << symStr(g_, ctr.dims[i].min) << ".."
                << symStr(g_, ctr.dims[i].max) << " by "
                << symStr(g_, ctr.dims[i].step);
        }
        os_ << ")";
    }

    void
    printNode(NodeId id, int depth)
    {
        const Node& n = g_.node(id);
        indent(depth);
        switch (n.kind()) {
          case NodeKind::Pipe:
          case NodeKind::Sequential:
          case NodeKind::ParallelCtrl:
          case NodeKind::MetaPipe: {
            const auto& c = g_.nodeAs<ControllerNode>(id);
            os_ << kindName(n.kind()) << " " << n.name();
            printCounter(c);
            if (c.par.isParam() || c.par.constant() != 1)
                os_ << " par=" << symStr(g_, c.par);
            if (c.kind() == NodeKind::MetaPipe)
                os_ << " toggle=" << symStr(g_, c.toggle);
            if (c.pattern == Pattern::Reduce)
                os_ << " reduce(" << opName(c.combine) << " -> "
                    << g_.node(c.accum).name() << ")";
            os_ << " {\n";
            for (NodeId ch : c.children) {
                if (g_.node(ch).kind() == NodeKind::Prim &&
                    g_.nodeAs<PrimNode>(ch).op == Op::Iter)
                    continue;
                printNode(ch, depth + 1);
            }
            indent(depth);
            os_ << "}\n";
            break;
          }
          case NodeKind::Bram: {
            const auto& m = g_.nodeAs<BramNode>(id);
            os_ << "bram " << m.name() << " : " << m.type.str() << "[";
            dims(m.dims);
            os_ << "]\n";
            break;
          }
          case NodeKind::Reg: {
            const auto& m = g_.nodeAs<RegNode>(id);
            os_ << "reg " << m.name() << " : " << m.type.str() << "\n";
            break;
          }
          case NodeKind::Queue: {
            const auto& m = g_.nodeAs<QueueNode>(id);
            os_ << "queue " << m.name() << " : " << m.type.str()
                << " depth=" << symStr(g_, m.depth) << "\n";
            break;
          }
          case NodeKind::TileLd: {
            const auto& t = g_.nodeAs<TileLdNode>(id);
            os_ << "tileLd " << g_.node(t.onchip).name() << " <- "
                << g_.node(t.offchip).name() << "[";
            dims(t.extent);
            os_ << "] par=" << symStr(g_, t.par) << "\n";
            break;
          }
          case NodeKind::TileSt: {
            const auto& t = g_.nodeAs<TileStNode>(id);
            os_ << "tileSt " << g_.node(t.offchip).name() << " <- "
                << g_.node(t.onchip).name() << "[";
            dims(t.extent);
            os_ << "] par=" << symStr(g_, t.par) << "\n";
            break;
          }
          case NodeKind::Prim: {
            const auto& p = g_.nodeAs<PrimNode>(id);
            os_ << "%" << id << " = " << opName(p.op);
            if (p.op == Op::Const)
                os_ << " " << p.constValue;
            for (NodeId in : p.inputs)
                os_ << " %" << in;
            os_ << " : " << p.type.str() << "\n";
            break;
          }
          case NodeKind::Load: {
            const auto& l = g_.nodeAs<LoadNode>(id);
            os_ << "%" << id << " = ld " << g_.node(l.mem).name() << "[";
            for (size_t i = 0; i < l.addr.size(); ++i)
                os_ << (i ? ", %" : "%") << l.addr[i];
            os_ << "]\n";
            break;
          }
          case NodeKind::Store: {
            const auto& s = g_.nodeAs<StoreNode>(id);
            os_ << "st " << g_.node(s.mem).name() << "[";
            for (size_t i = 0; i < s.addr.size(); ++i)
                os_ << (i ? ", %" : "%") << s.addr[i];
            os_ << "] = %" << s.value << "\n";
            break;
          }
          default:
            os_ << kindName(n.kind()) << " " << n.name() << "\n";
            break;
        }
    }

    const Graph& g_;
    std::ostringstream os_;
};

} // namespace

std::string
printGraph(const Graph& g)
{
    return Printer(g).run();
}

// ---- Canonical `.dhdl` IR emission -----------------------------------------

namespace {

/** Emitter for the canonical IR text. */
class IREmitter
{
  public:
    explicit IREmitter(const Graph& g) : g_(g) {}

    std::string
    run()
    {
        out_ += "dhdl 1\ndesign ";
        quoted(g_.name());
        out_ += '\n';
        const ParamTable& pt = g_.params();
        for (ParamId p = 0; p < ParamId(pt.size()); ++p) {
            const ParamDef& d = pt[p];
            out_ += "param ";
            quoted(d.name);
            out_ += " kind=";
            out_ += ir::paramKindName(d.kind);
            for (const auto& [key, member] : ir::kParamInts) {
                out_ += ' ';
                out_ += key;
                out_ += '=';
                num(d.*member);
            }
            out_ += '\n';
        }
        for (const Constraint& c : g_.constraints)
            out_ += "constraint " + c.str() + "\n";
        for (NodeId id = 0; id < NodeId(g_.numNodes()); ++id) {
            const Node& n = g_.node(id);
            const ir::KindSchema& k = ir::schemaOf(n.kind());
            out_ += "node %";
            num(id);
            out_ += ' ';
            out_ += k.keyword;
            out_ += ' ';
            quoted(n.name());
            out_ += " parent=";
            ref(n.parent);
            for (const ir::Field& f : k.fields) {
                out_ += ' ';
                out_ += f.key;
                out_ += '=';
                value(f, n);
            }
            out_ += '\n';
        }
        out_ += "root ";
        ref(g_.root);
        out_ += "\noffchip ";
        list(g_.offchipMems, [this](NodeId id) { ref(id); });
        out_ += "\nend\n";
        return std::move(out_);
    }

  private:
    /** An integer, or a double in the shortest form that round-trips. */
    template <class T>
    void
    num(T v)
    {
        char buf[64];
        auto res = std::to_chars(buf, buf + sizeof(buf), v);
        out_.append(buf, res.ptr);
    }

    void
    quoted(const std::string& s)
    {
        out_ += '"';
        for (char ch : s) {
            switch (ch) {
              case '"': out_ += "\\\""; break;
              case '\\': out_ += "\\\\"; break;
              case '\n': out_ += "\\n"; break;
              case '\t': out_ += "\\t"; break;
              case '\r': out_ += "\\r"; break;
              default: out_ += ch; break;
            }
        }
        out_ += '"';
    }

    void
    ref(NodeId id)
    {
        if (id == kNoNode) {
            out_ += '_';
        } else {
            out_ += '%';
            num(id);
        }
    }

    /** `7`, `$2`, `$2+4` or `$2-1`. */
    void
    sym(const Sym& s)
    {
        if (!s.isParam())
            return num(s.constant());
        out_ += '$';
        num(s.param());
        if (s.offset() > 0)
            out_ += '+';
        if (s.offset() != 0)
            num(s.offset());
    }

    /** Lossless type spelling, e.g. `f32`, `u8`, `fix<16,16>`. */
    void
    dtype(const DType& t)
    {
        const bool flt = t.kind == TypeKind::Float;
        if (t.kind == TypeKind::Bit) {
            out_ += "bit";
        } else if (flt && t.sign && t.fieldA == 8 && t.fieldB == 23) {
            out_ += "f32";
        } else if (flt && t.sign && t.fieldA == 11 && t.fieldB == 52) {
            out_ += "f64";
        } else if (!flt && t.fieldB == 0) {
            out_ += t.sign ? "i" : "u";
            num(int(t.fieldA));
        } else {
            out_ += t.sign ? "" : "u";
            out_ += flt ? "flt<" : "fix<";
            num(int(t.fieldA));
            out_ += ',';
            num(int(t.fieldB));
            out_ += '>';
        }
    }

    template <class T, class Item>
    void
    list(const std::vector<T>& xs, Item item)
    {
        out_ += '[';
        for (size_t i = 0; i < xs.size(); ++i) {
            if (i)
                out_ += ',';
            item(xs[i]);
        }
        out_ += ']';
    }

    void
    value(const ir::Field& f, const Node& n)
    {
        using F = ir::FieldType;
        switch (f.type) {
          case F::Ref: ref(ir::get<F::Ref>(f, n)); break;
          case F::RefList:
            list(ir::get<F::RefList>(f, n), [this](NodeId id) { ref(id); });
            break;
          case F::Sym: sym(ir::get<F::Sym>(f, n)); break;
          case F::SymList:
            list(ir::get<F::SymList>(f, n), [this](const Sym& s) { sym(s); });
            break;
          case F::DType: dtype(ir::get<F::DType>(f, n)); break;
          case F::Double: num(ir::get<F::Double>(f, n)); break;
          case F::Int: num(ir::get<F::Int>(f, n)); break;
          case F::Op: out_ += opName(ir::get<F::Op>(f, n)); break;
          case F::Pattern:
            out_ += ir::patternName(ir::get<F::Pattern>(f, n));
            break;
          case F::CtrDims:
            list(ir::get<F::CtrDims>(f, n), [&](const CtrDim& d) {
                sym(d.min);
                out_ += ':';
                sym(d.max);
                out_ += ':';
                sym(d.step);
            });
            break;
        }
    }

    const Graph& g_;
    std::string out_;
};

} // namespace

std::string
emitIR(const Graph& g)
{
    return IREmitter(g).run();
}

} // namespace dhdl
