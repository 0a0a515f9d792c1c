#include "core/parser.hh"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/printer.hh"
#include "obs/trace.hh"

namespace dhdl {
namespace {

// Hard size caps: a hostile file must not be able to make the parser
// allocate unbounded memory before validation has a chance to reject
// it. All are far above anything the builder produces.
constexpr size_t kMaxFileBytes = size_t(1) << 28;  // 256 MiB
constexpr int64_t kMaxNodes = int64_t(1) << 22;
constexpr int64_t kMaxParams = int64_t(1) << 16;
constexpr int64_t kMaxConstraints = int64_t(1) << 16;
constexpr size_t kMaxListLen = size_t(1) << 20;
constexpr size_t kMaxNameLen = 4096;
constexpr int kMaxCExprDepth = 64;

/**
 * Internal parse failure. Thrown inside the parser, converted to a
 * Status at the public boundary — callers never see an exception.
 */
struct ParseFail {
    std::string message;
};

/** Cursor over one line of input. */
class Cursor
{
  public:
    Cursor(std::string_view s, int line) : s_(s), line_(line) {}

    int line() const { return line_; }

    [[noreturn]] void
    fail(const std::string& why) const
    {
        std::ostringstream os;
        os << "line " << line_ << ": " << why;
        throw ParseFail{os.str()};
    }

    void
    skipSpace()
    {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t'))
            ++pos_;
    }

    bool atEnd() const { return pos_ >= s_.size(); }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    bool
    tryConsume(std::string_view tok)
    {
        if (s_.substr(pos_).substr(0, tok.size()) == tok) {
            pos_ += tok.size();
            return true;
        }
        return false;
    }

    void
    expect(std::string_view tok)
    {
        if (!tryConsume(tok))
            fail("expected '" + std::string(tok) + "'");
    }

    /** One space (canonical form) — tolerate runs of blanks. */
    void
    expectSpace()
    {
        if (atEnd() || (s_[pos_] != ' ' && s_[pos_] != '\t'))
            fail("expected whitespace");
        skipSpace();
    }

    void
    expectEnd()
    {
        skipSpace();
        if (!atEnd())
            fail("trailing characters");
    }

    int64_t
    parseInt()
    {
        skipSpace();
        int64_t v = 0;
        const char* b = s_.data() + pos_;
        const char* e = s_.data() + s_.size();
        auto res = std::from_chars(b, e, v);
        if (res.ec != std::errc() || res.ptr == b)
            fail("expected integer");
        pos_ += size_t(res.ptr - b);
        return v;
    }

    double
    parseDouble()
    {
        skipSpace();
        double v = 0;
        const char* b = s_.data() + pos_;
        const char* e = s_.data() + s_.size();
        auto res = std::from_chars(b, e, v);
        if (res.ec != std::errc() || res.ptr == b)
            fail("expected number");
        pos_ += size_t(res.ptr - b);
        return v;
    }

    /** Lower-case keyword: [a-z0-9_-]+. */
    std::string
    parseWord()
    {
        skipSpace();
        size_t start = pos_;
        while (pos_ < s_.size() &&
               ((s_[pos_] >= 'a' && s_[pos_] <= 'z') ||
                (s_[pos_] >= '0' && s_[pos_] <= '9') ||
                s_[pos_] == '_' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected keyword");
        return std::string(s_.substr(start, pos_ - start));
    }

    /** Quoted name with \\ \" \n \t \r escapes. */
    std::string
    parseQuoted()
    {
        skipSpace();
        expect("\"");
        std::string out;
        while (true) {
            if (atEnd())
                fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                break;
            if (c == '\\') {
                if (atEnd())
                    fail("unterminated escape");
                char e = s_[pos_++];
                switch (e) {
                  case '\\': out += '\\'; break;
                  case '"': out += '"'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  default: fail("unknown escape");
                }
            } else {
                out += c;
            }
            if (out.size() > kMaxNameLen)
                fail("name too long");
        }
        return out;
    }

    /** Node reference: `%<id>` or `_` (= kNoNode). */
    NodeId
    parseRef()
    {
        skipSpace();
        if (tryConsume("_"))
            return kNoNode;
        expect("%");
        int64_t v = parseInt();
        if (v < 0 || v >= kMaxNodes)
            fail("node reference out of range");
        return NodeId(v);
    }

    /** Symbolic size: `<int>`, `$<pid>`, `$<pid>+k` or `$<pid>-k`. */
    Sym
    parseSym(size_t num_params)
    {
        skipSpace();
        if (tryConsume("$")) {
            int64_t pid = parseInt();
            if (pid < 0 || size_t(pid) >= num_params)
                fail("parameter reference out of range");
            int64_t off = 0;
            // A signed offset follows immediately: `$3+1` / `$3-1`.
            // from_chars rejects a leading '+', so consume it here.
            if (tryConsume("+"))
                off = parseInt();
            else if (peek() == '-')
                off = parseInt();
            return Sym::p(ParamId(pid), off);
        }
        return Sym::c(parseInt());
    }

    DType
    parseDType()
    {
        skipSpace();
        // Longest match first: "f32"/"f64" before "flt<", "ufix<"
        // before "u<N>".
        if (tryConsume("f64"))
            return DType::f64();
        if (tryConsume("f32"))
            return DType::f32();
        if (tryConsume("bit"))
            return DType::bit();
        if (tryConsume("uflt<"))
            return parseAngle(TypeKind::Float, false);
        if (tryConsume("flt<"))
            return parseAngle(TypeKind::Float, true);
        if (tryConsume("ufix<"))
            return parseAngle(TypeKind::Fixed, false);
        if (tryConsume("fix<"))
            return parseAngle(TypeKind::Fixed, true);
        if (tryConsume("i"))
            return DType(TypeKind::Fixed, parseWidth(), 0, true);
        if (tryConsume("u"))
            return DType(TypeKind::Fixed, parseWidth(), 0, false);
        fail("expected type");
    }

    CExpr
    parseCExpr(size_t num_params, int depth = 0)
    {
        if (depth > kMaxCExprDepth)
            fail("constraint expression too deep");
        skipSpace();
        if (tryConsume("(")) {
            CExpr lhs = parseCExpr(num_params, depth + 1);
            skipSpace();
            CArith op;
            if (tryConsume("+"))
                op = CArith::Add;
            else if (tryConsume("-"))
                op = CArith::Sub;
            else if (tryConsume("*"))
                op = CArith::Mul;
            else if (tryConsume("/"))
                op = CArith::Div;
            else if (tryConsume("%"))
                op = CArith::Mod;
            else
                fail("expected arithmetic operator");
            CExpr rhs = parseCExpr(num_params, depth + 1);
            skipSpace();
            expect(")");
            return CExpr::arith(op, std::move(lhs), std::move(rhs));
        }
        if (tryConsume("$")) {
            int64_t pid = parseInt();
            if (pid < 0 || size_t(pid) >= num_params)
                fail("parameter reference out of range");
            return CExpr::p(ParamId(pid));
        }
        return CExpr::c(parseInt());
    }

  private:
    uint8_t
    parseWidth()
    {
        int64_t v = parseInt();
        if (v < 0 || v > 255)
            fail("type width out of range");
        return uint8_t(v);
    }

    DType
    parseAngle(TypeKind kind, bool sign)
    {
        uint8_t a = parseWidth();
        expect(",");
        uint8_t b = parseWidth();
        expect(">");
        return DType(kind, a, b, sign);
    }

    std::string_view s_;
    size_t pos_ = 0;
    int line_;
};

/** Sections of a `.dhdl` file, in required order. */
enum class Section : uint8_t {
    Header, Design, Param, Constraint, Node, Root, Offchip, End,
};

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    ParseResult
    run()
    {
        ParseResult out;
        try {
            parse();
            finalValidate();
            out.graph = std::move(graph_);
        } catch (const ParseFail& f) {
            out.status =
                Status::error(DiagCode::ParseError, "parse", f.message);
            out.graph.reset();
        } catch (const std::exception& e) {
            out.status = Status::error(
                DiagCode::ParseError, "parse",
                std::string("internal parse failure: ") + e.what());
            out.graph.reset();
        }
        return out;
    }

  private:
    Graph&
    g()
    {
        if (!graph_)
            throw ParseFail{"line " + std::to_string(line_) +
                            ": statement before 'design' header"};
        return *graph_;
    }

    void
    advanceTo(Section s, Cursor& c)
    {
        if (s < section_)
            c.fail("section out of order");
        section_ = s;
    }

    void
    parse()
    {
        if (text_.size() > kMaxFileBytes)
            throw ParseFail{"input exceeds maximum file size"};
        size_t pos = 0;
        bool saw_end = false;
        while (pos <= text_.size()) {
            size_t nl = text_.find('\n', pos);
            std::string_view lineText =
                text_.substr(pos, nl == std::string_view::npos
                                      ? std::string_view::npos
                                      : nl - pos);
            ++line_;
            // Strip a trailing CR so CRLF files parse.
            if (!lineText.empty() && lineText.back() == '\r')
                lineText.remove_suffix(1);
            parseLine(lineText, saw_end);
            if (nl == std::string_view::npos)
                break;
            pos = nl + 1;
            if (pos == text_.size())
                break;
        }
        if (!saw_end)
            throw ParseFail{"missing 'end' (truncated file?)"};
    }

    void
    parseLine(std::string_view lineText, bool& saw_end)
    {
        Cursor c(lineText, line_);
        c.skipSpace();
        if (c.atEnd() || c.peek() == '#')
            return; // blank or comment
        if (saw_end)
            c.fail("content after 'end'");
        std::string kw = c.parseWord();
        if (kw == "dhdl") {
            advanceTo(Section::Header, c);
            if (seen_header_)
                c.fail("duplicate 'dhdl' header");
            seen_header_ = true;
            int64_t v = c.parseInt();
            if (v != 1)
                c.fail("unsupported IR version");
            c.expectEnd();
        } else if (kw == "design") {
            if (!seen_header_)
                c.fail("'design' before 'dhdl' header");
            advanceTo(Section::Design, c);
            if (graph_)
                c.fail("duplicate 'design'");
            graph_.emplace(c.parseQuoted());
            c.expectEnd();
        } else if (kw == "param") {
            advanceTo(Section::Param, c);
            parseParam(c);
        } else if (kw == "constraint") {
            advanceTo(Section::Constraint, c);
            parseConstraint(c);
        } else if (kw == "node") {
            advanceTo(Section::Node, c);
            parseNode(c);
        } else if (kw == "root") {
            advanceTo(Section::Root, c);
            if (seen_root_)
                c.fail("duplicate 'root'");
            seen_root_ = true;
            g().root = c.parseRef();
            c.expectEnd();
        } else if (kw == "offchip") {
            advanceTo(Section::Offchip, c);
            if (seen_offchip_)
                c.fail("duplicate 'offchip'");
            seen_offchip_ = true;
            g().offchipMems = parseRefList(c);
            c.expectEnd();
        } else if (kw == "end") {
            advanceTo(Section::End, c);
            if (!graph_ || !seen_root_ || !seen_offchip_)
                c.fail("'end' before design/root/offchip");
            c.expectEnd();
            saw_end = true;
        } else {
            c.fail("unknown statement '" + kw + "'");
        }
    }

    void
    parseParam(Cursor& c)
    {
        if (int64_t(g().params().size()) >= kMaxParams)
            c.fail("too many parameters");
        ParamDef d;
        d.name = c.parseQuoted();
        c.expectSpace();
        c.expect("kind=");
        std::string k = c.parseWord();
        if (k == "tile")
            d.kind = ParamKind::TileSize;
        else if (k == "par")
            d.kind = ParamKind::ParFactor;
        else if (k == "toggle")
            d.kind = ParamKind::Toggle;
        else if (k == "fixed")
            d.kind = ParamKind::Fixed;
        else
            c.fail("unknown parameter kind '" + k + "'");
        c.expectSpace();
        c.expect("default=");
        d.defaultValue = c.parseInt();
        c.expectSpace();
        c.expect("divisor_of=");
        d.divisorOf = c.parseInt();
        c.expectSpace();
        c.expect("min=");
        d.minValue = c.parseInt();
        c.expectSpace();
        c.expect("max=");
        d.maxValue = c.parseInt();
        c.expectEnd();
        g().params().add(std::move(d));
    }

    void
    parseConstraint(Cursor& c)
    {
        if (int64_t(g().constraints.size()) >= kMaxConstraints)
            c.fail("too many constraints");
        size_t np = g().params().size();
        Constraint cons;
        cons.lhs = c.parseCExpr(np);
        c.skipSpace();
        if (c.tryConsume("=="))
            cons.cmp = CCmp::Eq;
        else if (c.tryConsume("!="))
            cons.cmp = CCmp::Ne;
        else if (c.tryConsume("<="))
            cons.cmp = CCmp::Le;
        else if (c.tryConsume(">="))
            cons.cmp = CCmp::Ge;
        else if (c.tryConsume("<"))
            cons.cmp = CCmp::Lt;
        else if (c.tryConsume(">"))
            cons.cmp = CCmp::Gt;
        else
            c.fail("expected comparison operator");
        cons.rhs = c.parseCExpr(np);
        c.expectEnd();
        g().constraints.push_back(std::move(cons));
    }

    std::vector<NodeId>
    parseRefList(Cursor& c)
    {
        std::vector<NodeId> out;
        c.skipSpace();
        c.expect("[");
        c.skipSpace();
        if (c.tryConsume("]"))
            return out;
        while (true) {
            if (out.size() >= kMaxListLen)
                c.fail("list too long");
            out.push_back(c.parseRef());
            c.skipSpace();
            if (c.tryConsume("]"))
                break;
            c.expect(",");
        }
        return out;
    }

    std::vector<Sym>
    parseSymList(Cursor& c)
    {
        std::vector<Sym> out;
        size_t np = g().params().size();
        c.skipSpace();
        c.expect("[");
        c.skipSpace();
        if (c.tryConsume("]"))
            return out;
        while (true) {
            if (out.size() >= kMaxListLen)
                c.fail("list too long");
            out.push_back(c.parseSym(np));
            c.skipSpace();
            if (c.tryConsume("]"))
                break;
            c.expect(",");
        }
        return out;
    }

    Op
    parseOp(Cursor& c)
    {
        std::string w = c.parseWord();
        for (int i = 0; i <= int(Op::ToFixed); ++i) {
            if (w == opName(Op(i)))
                return Op(i);
        }
        c.fail("unknown op '" + w + "'");
    }

    void
    parseNode(Cursor& c)
    {
        Graph& gr = g();
        if (int64_t(gr.numNodes()) >= kMaxNodes)
            c.fail("too many nodes");
        c.skipSpace();
        c.expect("%");
        int64_t id = c.parseInt();
        if (id != int64_t(gr.numNodes()))
            c.fail("node ids must be sequential");
        c.expectSpace();
        std::string kind = c.parseWord();
        std::string name = c.parseQuoted();
        c.expectSpace();
        c.expect("parent=");
        NodeId parent = c.parseRef();
        size_t np = gr.params().size();

        Node* made = nullptr;
        if (kind == "prim") {
            c.expectSpace();
            c.expect("op=");
            Op op = parseOp(c);
            c.expectSpace();
            c.expect("type=");
            DType t = c.parseDType();
            c.expectSpace();
            c.expect("val=");
            double val = c.parseDouble();
            c.expectSpace();
            c.expect("in=");
            auto inputs = parseRefList(c);
            c.expectSpace();
            c.expect("ctr=");
            NodeId ctr = c.parseRef();
            c.expectSpace();
            c.expect("dim=");
            int64_t dim = c.parseInt();
            if (dim < 0 || dim > int64_t(kMaxListLen))
                c.fail("counter dimension out of range");
            auto& n = gr.make<PrimNode>(std::move(name), op, t);
            n.constValue = val;
            n.inputs = std::move(inputs);
            n.counter = ctr;
            n.ctrDim = int(dim);
            made = &n;
        } else if (kind == "ld") {
            c.expectSpace();
            c.expect("mem=");
            NodeId mem = c.parseRef();
            c.expectSpace();
            c.expect("type=");
            DType t = c.parseDType();
            c.expectSpace();
            c.expect("addr=");
            auto addr = parseRefList(c);
            auto& n = gr.make<LoadNode>(std::move(name), mem, t);
            n.addr = std::move(addr);
            made = &n;
        } else if (kind == "st") {
            c.expectSpace();
            c.expect("mem=");
            NodeId mem = c.parseRef();
            c.expectSpace();
            c.expect("value=");
            NodeId value = c.parseRef();
            c.expectSpace();
            c.expect("addr=");
            auto addr = parseRefList(c);
            auto& n = gr.make<StoreNode>(std::move(name), mem, value);
            n.addr = std::move(addr);
            made = &n;
        } else if (kind == "offchipmem" || kind == "bram") {
            c.expectSpace();
            c.expect("type=");
            DType t = c.parseDType();
            c.expectSpace();
            c.expect("dims=");
            auto dims = parseSymList(c);
            if (dims.empty())
                c.fail("memory needs at least one dimension");
            if (kind == "offchipmem") {
                made = &gr.make<OffChipMemNode>(std::move(name), t,
                                                std::move(dims));
            } else {
                c.expectSpace();
                c.expect("banks=");
                int64_t banks = c.parseInt();
                if (banks < 0 || banks > (int64_t(1) << 20))
                    c.fail("bank count out of range");
                auto& n = gr.make<BramNode>(std::move(name), t,
                                            std::move(dims));
                n.forcedBanks = int(banks);
                made = &n;
            }
        } else if (kind == "reg") {
            c.expectSpace();
            c.expect("type=");
            DType t = c.parseDType();
            c.expectSpace();
            c.expect("init=");
            double init = c.parseDouble();
            made = &gr.make<RegNode>(std::move(name), t, init);
        } else if (kind == "queue") {
            c.expectSpace();
            c.expect("type=");
            DType t = c.parseDType();
            c.expectSpace();
            c.expect("depth=");
            Sym depth = c.parseSym(np);
            made = &gr.make<QueueNode>(std::move(name), t, depth);
        } else if (kind == "counter") {
            c.expectSpace();
            c.expect("dims=");
            std::vector<CtrDim> dims;
            c.expect("[");
            c.skipSpace();
            if (!c.tryConsume("]")) {
                while (true) {
                    if (dims.size() >= kMaxListLen)
                        c.fail("list too long");
                    CtrDim d;
                    d.min = c.parseSym(np);
                    c.expect(":");
                    d.max = c.parseSym(np);
                    c.expect(":");
                    d.step = c.parseSym(np);
                    dims.push_back(d);
                    c.skipSpace();
                    if (c.tryConsume("]"))
                        break;
                    c.expect(",");
                }
            }
            if (dims.empty())
                c.fail("counter needs at least one dimension");
            made = &gr.make<CounterNode>(std::move(name),
                                         std::move(dims));
        } else if (kind == "pipe" || kind == "seq" ||
                   kind == "parallel" || kind == "metapipe") {
            c.expectSpace();
            c.expect("counter=");
            NodeId counter = c.parseRef();
            c.expectSpace();
            c.expect("par=");
            Sym par = c.parseSym(np);
            c.expectSpace();
            c.expect("toggle=");
            Sym toggle = c.parseSym(np);
            c.expectSpace();
            c.expect("pattern=");
            std::string pat = c.parseWord();
            Pattern pattern;
            if (pat == "map")
                pattern = Pattern::Map;
            else if (pat == "reduce")
                pattern = Pattern::Reduce;
            else
                c.fail("unknown pattern '" + pat + "'");
            c.expectSpace();
            c.expect("combine=");
            Op combine = parseOp(c);
            c.expectSpace();
            c.expect("accum=");
            NodeId accum = c.parseRef();
            c.expectSpace();
            c.expect("body=");
            NodeId body = c.parseRef();
            c.expectSpace();
            c.expect("children=");
            auto children = parseRefList(c);
            ControllerNode* n = nullptr;
            if (kind == "pipe")
                n = &gr.make<PipeNode>(std::move(name));
            else if (kind == "seq")
                n = &gr.make<SequentialNode>(std::move(name));
            else if (kind == "parallel")
                n = &gr.make<ParallelNode>(std::move(name));
            else
                n = &gr.make<MetaPipeNode>(std::move(name));
            n->counter = counter;
            n->par = par;
            n->toggle = toggle;
            n->pattern = pattern;
            n->combine = combine;
            n->accum = accum;
            n->bodyResult = body;
            n->children = std::move(children);
            made = n;
        } else if (kind == "tileld" || kind == "tilest") {
            c.expectSpace();
            c.expect("off=");
            NodeId off = c.parseRef();
            c.expectSpace();
            c.expect("on=");
            NodeId on = c.parseRef();
            c.expectSpace();
            c.expect("base=");
            auto base = parseRefList(c);
            c.expectSpace();
            c.expect("extent=");
            auto extent = parseSymList(c);
            c.expectSpace();
            c.expect("par=");
            Sym par = c.parseSym(np);
            if (kind == "tileld") {
                auto& n = gr.make<TileLdNode>(std::move(name), off, on);
                n.base = std::move(base);
                n.extent = std::move(extent);
                n.par = par;
                made = &n;
            } else {
                auto& n = gr.make<TileStNode>(std::move(name), off, on);
                n.base = std::move(base);
                n.extent = std::move(extent);
                n.par = par;
                made = &n;
            }
        } else {
            c.fail("unknown node kind '" + kind + "'");
        }
        made->parent = parent;
        c.expectEnd();
    }

    // ---- Whole-graph validation -------------------------------------------
    //
    // References were stored as written (they may legally point
    // forward); now that every node exists, check that each one lands
    // in range, points at a node of a compatible kind, and that the
    // parent/children structure is a forest — the traversals
    // downstream (printing, flattening, simulation, statistics)
    // recurse over children and walk parent chains and must
    // terminate on any graph this parser accepts.

    [[noreturn]] void
    vfail(NodeId id, const std::string& why)
    {
        std::ostringstream os;
        os << "node %" << id << ": " << why;
        throw ParseFail{os.str()};
    }

    void
    checkRef(NodeId at, NodeId ref, bool allow_none, const char* what)
    {
        if (ref == kNoNode) {
            if (!allow_none)
                vfail(at, std::string(what) + " must not be '_'");
            return;
        }
        if (ref < 0 || size_t(ref) >= g().numNodes())
            vfail(at, std::string(what) + " reference out of range");
    }

    void
    checkKind(NodeId at, NodeId /*ref*/, bool ok, const char* what)
    {
        if (!ok)
            vfail(at, std::string(what) +
                      " references a node of the wrong kind");
    }

    /**
     * Data operands (prim inputs, load/store addresses, store values,
     * transfer bases) must reference strictly earlier nodes. The
     * builder only ever produces such graphs ("ids are topologically
     * ordered by construction") and every downstream consumer —
     * constant folding, the functional simulator, critical-path
     * analysis — relies on it; a forward or self data edge from a
     * hostile file could otherwise drive a traversal in circles.
     */
    void
    checkData(NodeId at, NodeId ref, const char* what)
    {
        checkRef(at, ref, false, what);
        if (ref >= at)
            vfail(at, std::string(what) +
                      " must reference an earlier node");
    }

    void
    finalValidate()
    {
        Graph& gr = g();
        size_t n = gr.numNodes();

        // Parent links: in range, controllers only, acyclic.
        for (NodeId id = 0; id < NodeId(n); ++id) {
            NodeId p = gr.node(id).parent;
            checkRef(id, p, true, "parent");
            if (p == id)
                vfail(id, "node is its own parent");
            if (p != kNoNode && !gr.node(p).isController())
                vfail(id, "parent is not a controller");
        }
        for (NodeId id = 0; id < NodeId(n); ++id) {
            NodeId p = gr.node(id).parent;
            size_t steps = 0;
            while (p != kNoNode) {
                if (++steps > n)
                    vfail(id, "parent chain forms a cycle");
                p = gr.node(p).parent;
            }
        }

        std::vector<bool> is_child(n, false);
        for (NodeId id = 0; id < NodeId(n); ++id) {
            const Node& node = gr.node(id);
            switch (node.kind()) {
              case NodeKind::Prim: {
                const auto& pr = gr.nodeAs<PrimNode>(id);
                for (NodeId in : pr.inputs)
                    checkData(id, in, "input");
                checkRef(id, pr.counter, true, "ctr");
                if (pr.counter != kNoNode) {
                    const auto* cn = gr.tryAs<CounterNode>(pr.counter);
                    checkKind(id, pr.counter, cn != nullptr, "ctr");
                    if (pr.ctrDim < 0 ||
                        size_t(pr.ctrDim) >= cn->dims.size())
                        vfail(id, "counter dimension out of range");
                } else if (pr.op == Op::Iter) {
                    vfail(id, "iter prim needs a counter");
                }
                break;
              }
              case NodeKind::Load: {
                const auto& l = gr.nodeAs<LoadNode>(id);
                checkRef(id, l.mem, false, "mem");
                checkKind(id, l.mem, gr.node(l.mem).isMemory(), "mem");
                for (NodeId a : l.addr)
                    checkData(id, a, "addr");
                break;
              }
              case NodeKind::Store: {
                const auto& s = gr.nodeAs<StoreNode>(id);
                checkRef(id, s.mem, false, "mem");
                checkKind(id, s.mem, gr.node(s.mem).isMemory(), "mem");
                checkData(id, s.value, "value");
                for (NodeId a : s.addr)
                    checkData(id, a, "addr");
                break;
              }
              case NodeKind::Pipe:
              case NodeKind::Sequential:
              case NodeKind::ParallelCtrl:
              case NodeKind::MetaPipe: {
                const auto& ct = gr.nodeAs<ControllerNode>(id);
                checkRef(id, ct.counter, true, "counter");
                if (ct.counter != kNoNode)
                    checkKind(id, ct.counter,
                              gr.tryAs<CounterNode>(ct.counter) !=
                                  nullptr,
                              "counter");
                checkRef(id, ct.accum, true, "accum");
                checkRef(id, ct.bodyResult, true, "body");
                for (NodeId ch : ct.children) {
                    checkRef(id, ch, false, "child");
                    if (ch == id)
                        vfail(id, "controller lists itself as child");
                    if (gr.node(ch).kind() == NodeKind::Counter)
                        vfail(id, "counters attach via counter=, "
                                  "never as children");
                    if (gr.node(ch).parent != id)
                        vfail(id, "child's parent link disagrees with "
                                  "children list");
                    if (is_child[size_t(ch)])
                        vfail(id, "node listed as child twice");
                    is_child[size_t(ch)] = true;
                }
                break;
              }
              case NodeKind::TileLd:
              case NodeKind::TileSt: {
                NodeId off, on;
                const std::vector<NodeId>* base;
                if (node.kind() == NodeKind::TileLd) {
                    const auto& t = gr.nodeAs<TileLdNode>(id);
                    off = t.offchip; on = t.onchip; base = &t.base;
                } else {
                    const auto& t = gr.nodeAs<TileStNode>(id);
                    off = t.offchip; on = t.onchip; base = &t.base;
                }
                checkRef(id, off, false, "off");
                checkKind(id, off,
                          gr.node(off).kind() == NodeKind::OffChipMem,
                          "off");
                checkRef(id, on, false, "on");
                checkKind(id, on, gr.node(on).isMemory(), "on");
                for (NodeId b : *base) {
                    if (b != kNoNode)
                        checkData(id, b, "base");
                }
                break;
              }
              default:
                break; // memories and counters hold no node refs
            }
        }

        if (gr.root == kNoNode)
            throw ParseFail{"design has no root controller"};
        if (gr.root < 0 || size_t(gr.root) >= n)
            throw ParseFail{"root reference out of range"};
        if (!gr.node(gr.root).isController())
            throw ParseFail{"root is not a controller"};
        for (NodeId m : gr.offchipMems) {
            if (m < 0 || size_t(m) >= n ||
                gr.node(m).kind() != NodeKind::OffChipMem)
                throw ParseFail{
                    "offchip list references a non-OffChipMem node"};
        }
        for (const Constraint& cons : gr.constraints) {
            if (cons.maxParam() >= ParamId(gr.params().size()) &&
                cons.maxParam() != kNoParam)
                throw ParseFail{
                    "constraint references an undeclared parameter"};
        }
    }

    std::string_view text_;
    std::optional<Graph> graph_;
    Section section_ = Section::Header;
    bool seen_header_ = false;
    bool seen_root_ = false;
    bool seen_offchip_ = false;
    int line_ = 0;
};

} // namespace

ParseResult
parseIR(std::string_view text)
{
    DHDL_OBS_SPAN("core", "parse-ir");
    return Parser(text).run();
}

ParseResult
parseIRFile(const std::string& path)
{
    DHDL_OBS_SPAN("core", "parse-ir-file");
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ParseResult out;
        out.status = Status::error(DiagCode::ParseError, "parse",
                                   "cannot open '" + path + "'");
        return out;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    if (in.bad()) {
        ParseResult out;
        out.status = Status::error(DiagCode::ParseError, "parse",
                                   "read error on '" + path + "'");
        return out;
    }
    return parseIR(text);
}

} // namespace dhdl
