#include "core/parser.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "core/irschema.hh"
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
 * A `divisor_of` must factor cheaply: trial division by every p up to
 * kMaxTrialDivisor may leave a cofactor of at most kMaxCofactor. Such
 * a cofactor with no factor up to 2^20 is prime, so listing the
 * divisors of an accepted value takes at most about 2^19 divisions; a
 * large prime, or the product of two, would take up to 2^31.
 */
constexpr int64_t kMaxTrialDivisor = int64_t(1) << 20;
constexpr int64_t kMaxCofactor = int64_t(1) << 40;

/**
 * What listing the divisors of all of a file's distinct `divisor_of`
 * values may cost, in trial divisions (DivisorListing::work summed).
 * ParamTable lists each distinct value once, so this bounds the time
 * any one file can spend there: 2^24 divisions take tens of ms, while
 * 64 distinct primes just below 2^40 would take 2^25.
 */
constexpr int64_t kMaxDivisorWork = int64_t(1) << 24;

/**
 * What the legal-value lists of a file's distinct parameter
 * definitions, and the divisor lists of its distinct divisor_of
 * values, may hold in total (ParamTable::listedValues() and
 * DivisorListing::values summed). ParamTable stores each once, so
 * this bounds its store at 8 MiB, while one file of 2^16 range
 * parameters could otherwise ask for 2^16 x 4097 values (2.1 GB).
 * The 8 apps' fixtures count at most 9,801.
 */
constexpr int64_t kMaxLegalValues = int64_t(1) << 20;

/** The most divisors any n <= 2^40 has (963761198400 has 6720). */
constexpr int64_t kMaxCofactorDivisors = 6720;

/** What listing the divisors of one divisor_of costs. */
struct DivisorListing {
    /** An upper bound on the trial divisions divisorsOf(n) takes, or
     *  -1 when n does not factor cheaply. */
    int64_t work = -1;
    /** An upper bound on the number of divisors of n. */
    int64_t values = 0;
};

/**
 * divisorsOf() tries the same p as the loop here, then goes on at
 * most to the square root of the cofactor this loop leaves. The
 * divisor count multiplies the primes divided out with the most
 * divisors the cofactor can have.
 */
DivisorListing
divisorListing(int64_t n)
{
    // Dividing out more factors only shrinks n, so stop at the cap.
    DivisorListing out;
    int64_t steps = 0, values = 1;
    for (int64_t p = 2; n > kMaxCofactor && p <= kMaxTrialDivisor;
         p += p == 2 ? 1 : 2, ++steps) {
        int64_t k = 0;
        for (; n % p == 0; ++k)
            n /= p;
        values *= k + 1;
    }
    if (n > kMaxCofactor)
        return out;
    out.work = steps + int64_t(std::sqrt(double(n))) / 2 + 2;
    out.values = values * std::min(n, kMaxCofactorDivisors);
    return out;
}


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

    /** `<key>=` of a field. */
    void
    expectKey(std::string_view key)
    {
        if (!tryConsume(key) || !tryConsume("="))
            fail("expected '" + std::string(key) + "='");
    }

    /**
     * Operator token: the longest name(E(i)), i <= last, at the
     * cursor, so "<=" wins over "<".
     */
    template <class E>
    E
    parseToken(const char* (*name)(E), E last, const char* what)
    {
        skipSpace();
        int best = -1;
        size_t len = 0;
        for (int i = 0; i <= int(last); ++i) {
            std::string_view tok = name(E(i));
            if (tok.size() > len && s_.substr(pos_, tok.size()) == tok) {
                best = i;
                len = tok.size();
            }
        }
        if (best < 0)
            fail(std::string("expected ") + what);
        pos_ += len;
        return E(best);
    }

    /** Keyword spelled name(E(i)) for some i <= last, e.g. an op. */
    template <class E>
    E
    parseName(const char* (*name)(E), E last, const char* what)
    {
        std::string w = parseWord();
        for (int i = 0; i <= int(last); ++i) {
            if (w == name(E(i)))
                return E(i);
        }
        fail(std::string("unknown ") + what + " '" + w + "'");
    }

    /** `[<item>,...]`, each entry read by item(). */
    template <class Item>
    auto
    parseList(Item item)
    {
        std::vector<decltype(item())> out;
        skipSpace();
        expect("[");
        skipSpace();
        if (tryConsume("]"))
            return out;
        while (true) {
            if (out.size() >= kMaxListLen)
                fail("list too long");
            out.push_back(item());
            skipSpace();
            if (tryConsume("]"))
                break;
            expect(",");
        }
        return out;
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
            CArith op =
                parseToken(arithName, CArith::Mod, "arithmetic operator");
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
        if (section_ == Section::Param && s != Section::Param) {
            // The whole param section passed its checks: only now do
            // the parameters list their legal values.
            for (ParamDef& d : params_)
                g().params().add(std::move(d));
            params_.clear();
        }
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
            readNode(c);
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
            g().offchipMems = c.parseList([&c] { return c.parseRef(); });
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
        g(); // a param before the 'design' header fails here
        if (int64_t(params_.size()) >= kMaxParams)
            c.fail("too many parameters");
        ParamDef d;
        d.name = c.parseQuoted();
        if (d.name.empty())
            c.fail("parameter must be named");
        c.expectSpace();
        c.expect("kind=");
        d.kind = c.parseName(ir::paramKindName, ParamKind::Fixed,
                             "parameter kind");
        for (const auto& [key, member] : ir::kParamInts) {
            c.expectSpace();
            c.expectKey(key);
            d.*member = c.parseInt();
        }
        if (d.minValue > d.maxValue)
            c.fail("parameter '" + d.name + "' has empty range");
        if (d.divisorOf > 0 && divisorOfs_.insert(d.divisorOf).second) {
            const DivisorListing listing = divisorListing(d.divisorOf);
            if (listing.work < 0)
                c.fail("parameter '" + d.name + "' has divisor_of=" +
                       std::to_string(d.divisorOf) +
                       ", which leaves a factor above 2^40 after trial "
                       "division up to 2^20");
            divisorWork_ += listing.work;
            if (divisorWork_ > kMaxDivisorWork)
                c.fail("parameter '" + d.name + "' has divisor_of=" +
                       std::to_string(d.divisorOf) +
                       ", which brings the file's " +
                       std::to_string(divisorOfs_.size()) +
                       " distinct divisor_of values past 2^24 trial "
                       "divisions to list");
            legalValues_ += listing.values;
        }
        if (distinctDefs_
                .insert({d.kind, d.divisorOf, d.minValue, d.maxValue,
                         d.defaultValue})
                .second)
            legalValues_ += ParamTable::listedValues(d);
        if (legalValues_ > kMaxLegalValues)
            c.fail("parameter '" + d.name +
                   "' brings the legal values of the file's " +
                   std::to_string(distinctDefs_.size()) +
                   " distinct parameter definitions past 2^20");
        c.expectEnd();
        params_.push_back(std::move(d));
    }

    void
    parseConstraint(Cursor& c)
    {
        if (int64_t(g().constraints.size()) >= kMaxConstraints)
            c.fail("too many constraints");
        size_t np = g().params().size();
        Constraint cons;
        cons.lhs = c.parseCExpr(np);
        cons.cmp = c.parseToken(cmpName, CCmp::Ge, "comparison operator");
        cons.rhs = c.parseCExpr(np);
        c.expectEnd();
        g().constraints.push_back(std::move(cons));
    }

    /** A node line, read field by field from the kind's schema. */
    void
    readNode(Cursor& c)
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
        const ir::KindSchema* k = ir::schemaOf(kind);
        if (!k)
            c.fail("unknown node kind '" + kind + "'");
        std::string name = c.parseQuoted();
        c.expectSpace();
        c.expect("parent=");
        NodeId parent = c.parseRef();
        Node& n = k->make(gr, std::move(name));
        n.parent = parent;
        for (const ir::Field& f : k->fields) {
            c.expectSpace();
            c.expectKey(f.key);
            readField(c, f, n);
        }
        if (k->derive)
            k->derive(n);
        c.expectEnd();
    }

    void
    readField(Cursor& c, const ir::Field& f, Node& n)
    {
        using F = ir::FieldType;
        size_t np = g().params().size();
        auto ref = [&c] { return c.parseRef(); };
        auto sym = [&c, np] { return c.parseSym(np); };
        auto list = [&c, &f](auto item) {
            auto v = c.parseList(item);
            if (f.rule.nonEmpty && v.empty())
                c.fail(std::string(f.key) + " needs at least one entry");
            return v;
        };
        switch (f.type) {
          case F::Ref: ir::get<F::Ref>(f, n) = ref(); break;
          case F::RefList: ir::get<F::RefList>(f, n) = list(ref); break;
          case F::Sym: ir::get<F::Sym>(f, n) = sym(); break;
          case F::SymList: ir::get<F::SymList>(f, n) = list(sym); break;
          case F::DType: ir::get<F::DType>(f, n) = c.parseDType(); break;
          case F::Double: ir::get<F::Double>(f, n) = c.parseDouble(); break;
          case F::Int: {
            int64_t v = c.parseInt();
            if (v < 0 || v > ir::kMaxFieldInt)
                c.fail(std::string(f.key) + " out of range");
            ir::get<F::Int>(f, n) = int(v);
            break;
          }
          case F::Op:
            ir::get<F::Op>(f, n) = c.parseName(opName, Op::ToFixed, "op");
            break;
          case F::Pattern:
            ir::get<F::Pattern>(f, n) =
                c.parseName(ir::patternName, Pattern::Reduce, "pattern");
            break;
          case F::CtrDims:
            ir::get<F::CtrDims>(f, n) = list([&c, &sym] {
                CtrDim d;
                d.min = sym();
                c.expect(":");
                d.max = sym();
                c.expect(":");
                d.step = sym();
                return d;
            });
            break;
        }
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

    /** A reference held by field f of node `at`, against f's Rule. */
    void
    checkRef(NodeId at, const ir::Field& f, NodeId ref)
    {
        auto bad = [&](const char* why) {
            vfail(at, std::string("'") + f.key + "' " + why);
        };
        if (ref == kNoNode) {
            if (!f.rule.optional)
                bad("must not be '_'");
            return;
        }
        if (ref < 0 || size_t(ref) >= g().numNodes())
            bad("reference out of range");
        if (f.rule.data && ref >= at)
            bad("must reference an earlier node");
        const Node& to = g().node(ref);
        bool fits = true;
        switch (f.rule.target) {
          case ir::Target::Any: break;
          case ir::Target::Memory: fits = to.isMemory(); break;
          case ir::Target::Counter:
            fits = to.kind() == NodeKind::Counter;
            break;
          case ir::Target::OffChip:
            fits = to.kind() == NodeKind::OffChipMem;
            break;
        }
        if (!fits)
            bad("references a node of the wrong kind");
    }

    /** Every reference field of a node, then its kind's own check. */
    void
    checkFields(NodeId id)
    {
        using F = ir::FieldType;
        const Node& node = g().node(id);
        const ir::KindSchema& k = ir::schemaOf(node.kind());
        for (const ir::Field& f : k.fields) {
            if (f.type == F::Ref)
                checkRef(id, f, ir::get<F::Ref>(f, node));
            else if (f.type == F::RefList) {
                for (NodeId r : ir::get<F::RefList>(f, node))
                    checkRef(id, f, r);
            }
        }
        if (k.check) {
            if (const char* why = k.check(g(), node))
                vfail(id, why);
        }
    }

    void
    finalValidate()
    {
        Graph& gr = g();
        size_t n = gr.numNodes();

        // Parent links: in range, controllers only, acyclic.
        for (NodeId id = 0; id < NodeId(n); ++id) {
            NodeId p = gr.node(id).parent;
            if (p == kNoNode)
                continue;
            if (p < 0 || size_t(p) >= n)
                vfail(id, "parent reference out of range");
            if (p == id)
                vfail(id, "node is its own parent");
            if (!gr.node(p).isController())
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

        // Per-field references, then the children forest.
        std::vector<bool> is_child(n, false);
        for (NodeId id = 0; id < NodeId(n); ++id) {
            checkFields(id);
            if (!gr.node(id).isController())
                continue;
            for (NodeId ch : gr.nodeAs<ControllerNode>(id).children) {
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
    /** The param section, added to the graph as it ends. */
    std::vector<ParamDef> params_;
    std::unordered_set<int64_t> divisorOfs_; //!< Distinct divisor_of.
    int64_t divisorWork_ = 0; //!< DivisorListing::work over them.
    /** Distinct definitions: kind, divisor_of, min, max, default. */
    std::set<std::tuple<ParamKind, int64_t, int64_t, int64_t, int64_t>>
        distinctDefs_;
    /** ParamTable::listedValues() and DivisorListing::values over
     *  them. */
    int64_t legalValues_ = 0;
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
