#include "dse/space.hh"

#include "ml/rng.hh"

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

} // namespace

ParamSpace::ParamSpace(const Graph& g)
{
    legal_.reserve(g.params().size());
    for (size_t p = 0; p < g.params().size(); ++p)
        legal_.push_back(g.params().legalValues(ParamId(p)));
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
    for (const Constraint& c : g.constraints)
        constraints_.emplace_back(c);
}

ParamSpace::ConstraintCheck::ConstraintCheck(const Constraint& c)
    : cmp(c.cmp), generic(c)
{
    using K = CExpr::Kind;
    auto isArith = [](const CExpr& e, CArith op) {
        return e.kind() == K::Arith && e.op() == op;
    };
    if (c.rhs.kind() != K::Const || !isArith(c.lhs, CArith::Mod) ||
        c.lhs.rhs().kind() != K::Param)
        return;
    const CExpr& num = c.lhs.lhs();
    if (num.kind() == K::Param) {
        shape = Shape::PModP;
        pa = num.param();
    } else if (isArith(num, CArith::Div) &&
               num.lhs().kind() == K::Const &&
               num.rhs().kind() == K::Param) {
        shape = Shape::CDivPModP;
        ca = num.lhs().value();
        pa = num.rhs().param();
    } else {
        return;
    }
    pb = c.lhs.rhs().param();
    rhs = c.rhs.value();
}

bool
ParamSpace::ConstraintCheck::holds(const ParamBinding& b) const
{
    if (shape == Shape::Generic)
        return generic.eval(b);
    // Straight-line fast paths; each replicates Constraint::eval's
    // out-of-range, division-by-zero and INT64_MIN/-1 semantics.
    if (pa < 0 || size_t(pa) >= b.values.size() || pb < 0 ||
        size_t(pb) >= b.values.size())
        return false;
    int64_t l = b.values[size_t(pa)];
    if (shape == Shape::CDivPModP) {
        if (l == 0 || (ca == INT64_MIN && l == -1))
            return false;
        l = ca / l;
    }
    const int64_t r = b.values[size_t(pb)];
    if (r == 0 || (l == INT64_MIN && r == -1))
        return false;
    return cmpHolds(cmp, l % r, rhs);
}

int64_t
ParamSpace::MemCheck::bits(const ParamBinding& b) const
{
    int64_t n = 1;
    for (const Term& t : terms) {
        int64_t dim = t.c;
        if (t.param != kNoParam) {
            invariant(t.param >= 0 && size_t(t.param) < b.values.size(),
                      "parameter id out of range");
            if (__builtin_add_overflow(b.values[size_t(t.param)], t.c,
                                       &dim))
                return INT64_MAX;
        }
        if (__builtin_mul_overflow(n, dim, &n))
            return INT64_MAX;
    }
    return __builtin_mul_overflow(n, typeBits, &n) ? INT64_MAX : n;
}

double
ParamSpace::sizeEstimate() const
{
    double n = 1;
    for (const auto& vs : legal_)
        n *= double(vs.size());
    return n;
}

bool
ParamSpace::isLegal(const ParamBinding& b) const
{
    for (const ConstraintCheck& c : constraints_) {
        if (!c.holds(b))
            return false;
    }
    for (const MemCheck& m : memChecks_) {
        if (m.bits(b) > kMaxLocalMemBits)
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
    int64_t bits = 0;
    for (const MemCheck& m : memChecks_) {
        if (__builtin_add_overflow(bits, m.bits(b), &bits))
            return INT64_MAX;
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
