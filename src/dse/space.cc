#include "dse/space.hh"

namespace dhdl::dse {

namespace {

/**
 * Flat open-addressed set of seen binding hashes. The stored values
 * are themselves the output of a hashMix chain, so identity probing
 * distributes fine. Membership decisions are exactly
 * unordered_set<uint64_t>'s — insert if absent — without the
 * per-node allocation, which makes the sampling loop's dedup check
 * cache-resident during large sweeps.
 */
class SeenSet
{
  public:
    explicit SeenSet(size_t expected)
    {
        size_t cap = 16;
        while (cap < expected * 2)
            cap <<= 1;
        slots_.assign(cap, 0);
    }

    /** True when h was absent (and is now inserted). */
    bool
    insert(uint64_t h)
    {
        if (h == 0) {
            if (hasZero_)
                return false;
            hasZero_ = true;
            return true;
        }
        if ((count_ + 1) * 10 > slots_.size() * 7)
            grow();
        size_t i = size_t(h) & (slots_.size() - 1);
        while (slots_[i] != 0) {
            if (slots_[i] == h)
                return false;
            i = (i + 1) & (slots_.size() - 1);
        }
        slots_[i] = h;
        ++count_;
        return true;
    }

  private:
    void
    grow()
    {
        std::vector<uint64_t> old(slots_.size() * 2, 0);
        old.swap(slots_);
        for (uint64_t h : old) {
            if (h == 0)
                continue;
            size_t i = size_t(h) & (slots_.size() - 1);
            while (slots_[i] != 0)
                i = (i + 1) & (slots_.size() - 1);
            slots_[i] = h;
        }
    }

    std::vector<uint64_t> slots_;
    size_t count_ = 0;
    bool hasZero_ = false;
};

/**
 * Per-parameter value draw with the modulus strength-reduced: the
 * value-list length is invariant across every sampling attempt, so
 * `next() % size` is computed with a precomputed reciprocal (one
 * multiply-high) instead of a hardware divide. Exactness: with
 * m = floor((2^64-1)/d), q = floor(n*m / 2^64) never exceeds
 * floor(n/d) and undershoots it by at most 2, so after subtracting
 * q*d at most two corrective subtractions leave exactly n mod d.
 * Single-value parameters return index 0 without consuming a draw,
 * matching Rng::uniformInt(0, 0).
 */
class FastDraw
{
  public:
    explicit FastDraw(uint64_t d) : d_(d), m_(d > 1 ? ~0ull / d : 0) {}

    size_t
    index(ml::Rng& rng) const
    {
        if (d_ <= 1)
            return 0;
        const uint64_t n = rng.next();
        const uint64_t q =
            uint64_t((unsigned __int128)(n)*m_ >> 64);
        uint64_t r = n - q * d_;
        while (r >= d_)
            r -= d_;
        return size_t(r);
    }

  private:
    uint64_t d_, m_;
};

/** Max operand-stack depth evalCompiled supports; deeper programs
 *  (never seen in practice) fall back to the expression tree. */
constexpr size_t kCStackMax = 64;

/** Flatten an expression to postfix; returns the stack depth. */
size_t
flattenCExpr(const CExpr& e, auto& out)
{
    switch (e.kind()) {
      case CExpr::Kind::Const: {
        auto& i = out.emplace_back();
        i.kind = std::remove_reference_t<decltype(i)>::K::Const;
        i.value = e.value();
        return 1;
      }
      case CExpr::Kind::Param: {
        auto& i = out.emplace_back();
        i.kind = std::remove_reference_t<decltype(i)>::K::Param;
        i.param = e.param();
        return 1;
      }
      case CExpr::Kind::Arith: {
        size_t dl = flattenCExpr(e.lhs(), out);
        size_t dr = flattenCExpr(e.rhs(), out);
        auto& i = out.emplace_back();
        i.kind = std::remove_reference_t<decltype(i)>::K::Arith;
        i.op = e.op();
        return std::max(dl, dr + 1);
      }
    }
    return 1;
}

/** Apply a comparison operator; the final step of constraint eval. */
inline bool
applyCmp(CCmp cmp, int64_t l, int64_t r)
{
    switch (cmp) {
      case CCmp::Eq: return l == r;
      case CCmp::Ne: return l != r;
      case CCmp::Lt: return l < r;
      case CCmp::Le: return l <= r;
      case CCmp::Gt: return l > r;
      case CCmp::Ge: return l >= r;
    }
    return false;
}

} // namespace

ParamSpace::ParamSpace(const Graph& g) : g_(g)
{
    const auto& params = g.params();
    legal_.reserve(params.size());
    for (size_t i = 0; i < params.size(); ++i)
        legal_.push_back(params.legalValues(ParamId(i)));
    for (NodeId id = 0; id < NodeId(g.numNodes()); ++id) {
        const Node& n = g.node(id);
        if (n.kind() == NodeKind::Bram || n.kind() == NodeKind::Queue) {
            const auto& m = g.nodeAs<MemNode>(id);
            MemCheck mc;
            mc.typeBits = m.type.bits();
            mc.terms.reserve(m.dims.size());
            for (const Sym& d : m.dims)
                mc.terms.push_back(d.isParam()
                                       ? MemCheck::Term{d.param(),
                                                        d.offset()}
                                       : MemCheck::Term{kNoParam,
                                                        d.constant()});
            memChecks_.push_back(std::move(mc));
        }
    }
    constraints_.reserve(g.constraints.size());
    for (const Constraint& c : g.constraints) {
        CompiledConstraint cc;
        cc.cmp = c.cmp;
        size_t depth = flattenCExpr(c.lhs, cc.ops);
        depth = std::max(depth, 1 + flattenCExpr(c.rhs, cc.ops));
        if (depth > kCStackMax) {
            cc.ops.clear();
            cc.tree = &c;
        }
        // Recognize the dominant divisibility shapes (see Shape).
        using K = CInstr::K;
        using Shape = CompiledConstraint::Shape;
        const auto& ops = cc.ops;
        if (ops.size() == 4 && ops[0].kind == K::Param &&
            ops[1].kind == K::Param && ops[2].kind == K::Arith &&
            ops[2].op == CArith::Mod && ops[3].kind == K::Const) {
            cc.shape = Shape::PModP;
            cc.pa = ops[0].param;
            cc.pb = ops[1].param;
            cc.rhs = ops[3].value;
        } else if (ops.size() == 6 && ops[0].kind == K::Const &&
                   ops[1].kind == K::Param && ops[2].kind == K::Arith &&
                   ops[2].op == CArith::Div &&
                   ops[3].kind == K::Param && ops[4].kind == K::Arith &&
                   ops[4].op == CArith::Mod &&
                   ops[5].kind == K::Const) {
            cc.shape = Shape::CDivPModP;
            cc.ca = ops[0].value;
            cc.pa = ops[1].param;
            cc.pb = ops[3].param;
            cc.rhs = ops[5].value;
        }
        constraints_.push_back(std::move(cc));
    }
}

bool
ParamSpace::evalCompiled(const CompiledConstraint& c,
                         const ParamBinding& b) const
{
    if (c.tree != nullptr)
        return c.tree->eval(b);
    // Straight-line fast paths; each replicates the interpreter's
    // out-of-range, division-by-zero and INT64_MIN/-1 semantics.
    using Shape = CompiledConstraint::Shape;
    if (c.shape == Shape::PModP) {
        if (c.pa < 0 || size_t(c.pa) >= b.values.size() || c.pb < 0 ||
            size_t(c.pb) >= b.values.size())
            return false;
        const int64_t l = b.values[size_t(c.pa)];
        const int64_t r = b.values[size_t(c.pb)];
        if (r == 0 || (l == INT64_MIN && r == -1))
            return false;
        return applyCmp(c.cmp, l % r, c.rhs);
    }
    if (c.shape == Shape::CDivPModP) {
        if (c.pa < 0 || size_t(c.pa) >= b.values.size() || c.pb < 0 ||
            size_t(c.pb) >= b.values.size())
            return false;
        const int64_t d = b.values[size_t(c.pa)];
        if (d == 0 || (c.ca == INT64_MIN && d == -1))
            return false;
        const int64_t l = c.ca / d;
        const int64_t r = b.values[size_t(c.pb)];
        if (r == 0 || (l == INT64_MIN && r == -1))
            return false;
        return applyCmp(c.cmp, l % r, c.rhs);
    }
    int64_t stack[kCStackMax];
    size_t sp = 0;
    for (const CInstr& i : c.ops) {
        switch (i.kind) {
          case CInstr::K::Const:
            stack[sp++] = i.value;
            break;
          case CInstr::K::Param:
            if (i.param < 0 || size_t(i.param) >= b.values.size())
                return false;
            stack[sp++] = b.values[size_t(i.param)];
            break;
          case CInstr::K::Arith: {
            const int64_t r = stack[--sp];
            const int64_t l = stack[--sp];
            int64_t out = 0;
            switch (i.op) {
              case CArith::Add:
                if (__builtin_add_overflow(l, r, &out))
                    return false;
                break;
              case CArith::Sub:
                if (__builtin_sub_overflow(l, r, &out))
                    return false;
                break;
              case CArith::Mul:
                if (__builtin_mul_overflow(l, r, &out))
                    return false;
                break;
              case CArith::Div:
                if (r == 0 || (l == INT64_MIN && r == -1))
                    return false;
                out = l / r;
                break;
              case CArith::Mod:
                if (r == 0 || (l == INT64_MIN && r == -1))
                    return false;
                out = l % r;
                break;
            }
            stack[sp++] = out;
            break;
          }
        }
    }
    const int64_t r = stack[--sp];
    const int64_t l = stack[--sp];
    return applyCmp(c.cmp, l, r);
}

double
ParamSpace::sizeEstimate() const
{
    double n = 1;
    for (const auto& vs : legal_)
        n *= double(vs.size());
    return n;
}

ParamBinding
ParamSpace::randomBinding(ml::Rng& rng) const
{
    ParamBinding b;
    b.values.reserve(legal_.size());
    for (const auto& vs : legal_)
        b.values.push_back(
            vs[size_t(rng.uniformInt(0, int64_t(vs.size()) - 1))]);
    return b;
}

bool
ParamSpace::isLegal(const ParamBinding& b) const
{
    for (const CompiledConstraint& c : constraints_) {
        if (!evalCompiled(c, b))
            return false;
    }
    const int64_t* vals = b.values.data();
    const size_t nvals = b.values.size();
    for (const MemCheck& m : memChecks_) {
        int64_t n = 1;
        for (const MemCheck::Term& t : m.terms) {
            if (t.param == kNoParam) {
                n *= t.c;
            } else {
                invariant(t.param >= 0 && size_t(t.param) < nvals,
                          "parameter id out of range");
                n *= vals[size_t(t.param)] + t.c;
            }
        }
        if (n * m.typeBits > kMaxLocalMemBits)
            return false;
    }
    return true;
}

std::vector<ParamBinding>
ParamSpace::enumerate(int64_t cap) const
{
    std::vector<ParamBinding> out;
    if (legal_.empty()) {
        out.push_back(ParamBinding{});
        return out;
    }
    std::vector<size_t> idx(legal_.size(), 0);
    while (int64_t(out.size()) < cap) {
        ParamBinding b;
        b.values.reserve(legal_.size());
        for (size_t i = 0; i < legal_.size(); ++i)
            b.values.push_back(legal_[i][idx[i]]);
        if (isLegal(b))
            out.push_back(std::move(b));

        // Odometer advance.
        size_t d = legal_.size();
        while (d-- > 0) {
            if (++idx[d] < legal_[d].size())
                break;
            idx[d] = 0;
            if (d == 0)
                return out;
        }
    }
    return out;
}

int64_t
ParamSpace::localMemBits(const ParamBinding& b) const
{
    const int64_t* vals = b.values.data();
    const size_t nvals = b.values.size();
    int64_t bits = 0;
    for (const MemCheck& m : memChecks_) {
        int64_t n = 1;
        for (const MemCheck::Term& t : m.terms) {
            if (t.param == kNoParam) {
                n *= t.c;
            } else {
                invariant(t.param >= 0 && size_t(t.param) < nvals,
                          "parameter id out of range");
                n *= vals[size_t(t.param)] + t.c;
            }
        }
        bits += n * m.typeBits;
    }
    return bits;
}

std::vector<ParamBinding>
ParamSpace::sample(int n, uint64_t seed, DiagSink* sink) const
{
    ml::Rng rng(ml::hashMix(seed));
    std::vector<ParamBinding> out;
    SeenSet seen{size_t(n)};
    // Per-parameter draw state with the value list flattened to a raw
    // pointer; the draw loop also folds the dedup hash in the same
    // pass (identical hashMix chain over the values in order).
    struct Slot {
        const int64_t* vals;
        FastDraw draw;
    };
    std::vector<Slot> slots;
    slots.reserve(legal_.size());
    for (const auto& vs : legal_)
        slots.push_back({vs.data(), FastDraw(uint64_t(vs.size()))});
    // The legal space can be smaller than n; bound the attempts.
    int64_t attempts = int64_t(n) * 20 + 1000;
    // One candidate reused across rejection attempts; copied into
    // `out` only on acceptance.
    ParamBinding b;
    b.values.resize(legal_.size());
    while (int(out.size()) < n && attempts-- > 0) {
        uint64_t h = 0x9e3779b97f4a7c15ull;
        for (size_t i = 0; i < slots.size(); ++i) {
            const int64_t v = slots[i].vals[slots[i].draw.index(rng)];
            b.values[i] = v;
            h = ml::hashMix(h ^ uint64_t(v));
        }
        if (!seen.insert(h))
            continue;
        if (!isLegal(b))
            continue; // "We immediately discard illegal points."
        out.push_back(b);
    }
    if (sink && int(out.size()) < n) {
        // The shortfall used to be a bench-only footnote
        // (blackscholes: 708 legal < 2000 requested); every sweep now
        // reports it structurally.
        sink->report(Diag::warning(
            DiagCode::SamplingShortfall, "sample",
            "sampling shortfall: drew " + std::to_string(out.size()) +
                " of " + std::to_string(n) +
                " requested point(s); the legal space is smaller or "
                "too sparse"));
    }
    return out;
}

} // namespace dhdl::dse
