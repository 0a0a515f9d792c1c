/**
 * Property-based sweeps (parameterized gtest): cross-cutting
 * invariants checked over every benchmark and over randomly sampled
 * design points, rather than single hand-picked cases.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <set>

#include "apps/apps.hh"
#include "core/parser.hh"
#include "core/printer.hh"
#include "core/validate.hh"
#include "dse/explorer.hh"
#include "analysis/resources.hh"
#include "estimate/runtime_estimator.hh"
#include "fpga/toolchain.hh"
#include "ml/rng.hh"
#include "sim/timing.hh"

namespace dhdl {
namespace {

/** Small-scale build of one named benchmark. */
Design
buildApp(const std::string& name, double scale = 0.02)
{
    for (const auto& app : apps::allApps()) {
        if (app.name == name)
            return app.build(scale);
    }
    fatal("unknown app " + name);
}

class AppProperty : public ::testing::TestWithParam<const char*>
{
};

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, AppProperty,
                         ::testing::Values("dotproduct", "outerprod",
                                           "gemm", "tpchq6",
                                           "blackscholes", "gda",
                                           "kmeans"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

TEST_P(AppProperty, IrRoundTripsByteIdentical)
{
    // print -> parse -> print is the identity on canonical text, for
    // every benchmark at several dataset scales.
    for (double scale : {0.02, 0.1, 1.0}) {
        Design d = buildApp(GetParam(), scale);
        std::string first = emitIR(d.graph());
        ParseResult res = parseIR(first);
        ASSERT_TRUE(res.ok())
            << "scale " << scale << ": " << res.status.diag().str();
        EXPECT_EQ(emitIR(*res.graph), first) << "scale " << scale;
    }
}

TEST_P(AppProperty, GraphIsValid)
{
    Design d = buildApp(GetParam());
    auto errs = validate(d.graph());
    EXPECT_TRUE(errs.empty()) << (errs.empty() ? "" : errs[0]);
}

TEST_P(AppProperty, SampledBindingsAreLegalAndEstimable)
{
    Design d = buildApp(GetParam());
    dse::ParamSpace space(d.graph());
    est::RuntimeEstimator rt;
    for (const auto& b : space.sample(25, 99)) {
        // Every sampled binding satisfies the divisor domains and the
        // design's own cross-parameter constraints.
        EXPECT_TRUE(d.params().isLegal(b));
        EXPECT_TRUE(d.graph().satisfiesConstraints(b));
        Inst inst(d.graph(), b);
        auto area = est::calibratedEstimator().estimate(inst);
        EXPECT_GE(area.alms, 0.0);
        EXPECT_GE(area.brams, 0.0);
        EXPECT_GE(area.dsps, 0.0);
        EXPECT_GT(rt.estimate(inst).cycles, 0.0);
    }
}

TEST_P(AppProperty, EstimateTracksSimulationOnSampledPoints)
{
    // Table III's premise as a property: runtime estimates stay
    // within a bounded band of the detailed simulation on arbitrary
    // legal points, not just Pareto-optimal ones.
    Design d = buildApp(GetParam(), 0.05);
    dse::ParamSpace space(d.graph());
    est::RuntimeEstimator rt;
    for (const auto& b : space.sample(10, 7)) {
        Inst inst(d.graph(), b);
        double est_c = rt.estimate(inst).cycles;
        double sim_c = sim::TimingSim(inst).run().cycles;
        EXPECT_GT(est_c, 0.4 * sim_c);
        EXPECT_LT(est_c, 2.5 * sim_c);
    }
}

TEST_P(AppProperty, AreaEstimateTracksSynthesisOnSampledPoints)
{
    Design d = buildApp(GetParam(), 0.05);
    dse::ParamSpace space(d.graph());
    const auto& tc = est::defaultToolchain();
    for (const auto& b : space.sample(8, 13)) {
        Inst inst(d.graph(), b);
        auto e = est::calibratedEstimator().estimate(inst);
        auto r = tc.synthesize(inst);
        EXPECT_GT(e.alms, 0.6 * r.alms);
        EXPECT_LT(e.alms, 1.5 * r.alms);
    }
}

TEST_P(AppProperty, MorePointsNeverWorsenBestDesign)
{
    Design d = buildApp(GetParam());
    est::RuntimeEstimator rt;
    dse::Explorer ex(est::calibratedEstimator(), rt);
    dse::ExploreConfig small_cfg;
    small_cfg.maxPoints = 30;
    small_cfg.seed = 5;
    dse::ExploreConfig big_cfg;
    big_cfg.maxPoints = 120;
    big_cfg.seed = 5;
    auto small_res = ex.explore(d.graph(), small_cfg);
    auto big_res = ex.explore(d.graph(), big_cfg);
    auto sb = small_res.bestIndex();
    auto bb = big_res.bestIndex();
    if (!sb) {
        SUCCEED();
        return;
    }
    ASSERT_TRUE(bb.has_value());
    // The sampler is prefix-stable per seed, so a larger budget can
    // only add candidates.
    EXPECT_LE(big_res.points[*bb].cycles,
              small_res.points[*sb].cycles * 1.0001);
}

TEST_P(AppProperty, TimingSimDeterministic)
{
    Design d = buildApp(GetParam());
    auto b = d.params().defaults();
    Inst inst(d.graph(), b);
    EXPECT_DOUBLE_EQ(sim::TimingSim(inst).run().cycles,
                     sim::TimingSim(inst).run().cycles);
}

TEST_P(AppProperty, MaxjParameterInsensitiveStructure)
{
    // Braces must stay balanced across random parameter choices.
    Design d = buildApp(GetParam());
    dse::ParamSpace space(d.graph());
    for (const auto& b : space.sample(5, 21)) {
        Inst inst(d.graph(), b);
        // Estimation templates must expand without panics for any
        // legal binding.
        auto ts = expandTemplates(inst);
        EXPECT_FALSE(ts.empty());
    }
}

/** Toggle sweep: MetaPipe-on must never be slower than MetaPipe-off
 *  under the estimator (it strictly adds overlap). */
class ToggleProperty
    : public ::testing::TestWithParam<std::tuple<const char*, int>>
{
};

INSTANTIATE_TEST_SUITE_P(
    TogglesXSeeds, ToggleProperty,
    ::testing::Combine(::testing::Values("dotproduct", "blackscholes",
                                         "gda"),
                       ::testing::Values(1, 2, 3)));

TEST_P(ToggleProperty, OverlapNeverHurtsRuntime)
{
    auto [name, seed] = GetParam();
    Design d = buildApp(name, 0.05);
    dse::ParamSpace space(d.graph());
    auto samples = space.sample(5, uint64_t(seed));
    est::RuntimeEstimator rt;
    for (auto b : samples) {
        // Force every toggle on, then off, keeping other params.
        ParamBinding on = b, off = b;
        for (size_t i = 0; i < d.params().size(); ++i) {
            if (d.params()[ParamId(i)].kind == ParamKind::Toggle) {
                on.values[i] = 1;
                off.values[i] = 0;
            }
        }
        double t_on = rt.estimate(Inst(d.graph(), on)).cycles;
        double t_off = rt.estimate(Inst(d.graph(), off)).cycles;
        EXPECT_LE(t_on, t_off * 1.0001)
            << name << " seed " << seed;
    }
}

/**
 * Randomized builder graphs: nested controllers, mixed datatypes,
 * reductions and tile transfers chosen by a seeded Rng, plus a
 * priority queue in every third seed. Every graph the builder can
 * produce must survive print -> parse -> print unchanged, and
 * evaluate identically batched and point at a time.
 */
class RoundTripProperty : public ::testing::TestWithParam<int>
{
  public:
    static DType
    randomType(ml::Rng& rng)
    {
        switch (rng.uniformInt(0, 4)) {
          case 0: return DType::f32();
          case 1: return DType::f64();
          case 2: return DType::i32();
          case 3: return DType::fix(16, 16);
          default: return DType::i16();
        }
    }

    static Op
    randomBinop(ml::Rng& rng)
    {
        static const Op ops[] = {Op::Add, Op::Sub, Op::Mul, Op::Div,
                                 Op::Min, Op::Max};
        return ops[rng.uniformInt(0, 5)];
    }

    static void
    randomBody(Scope& s, ml::Rng& rng, Mem tile, ParamId ts,
               int depth)
    {
        int blocks = int(rng.uniformInt(1, depth == 0 ? 3 : 2));
        for (int i = 0; i < blocks; ++i) {
            std::string tag =
                "d" + std::to_string(depth) + "b" + std::to_string(i);
            switch (rng.uniformInt(0, 3)) {
              case 0: { // Map pipe writing a fresh bram.
                DType t = randomType(rng);
                Mem dst = s.bram("m" + tag, t, {Sym::p(ts)});
                s.pipe("P" + tag, {ctr(Sym::p(ts))},
                       Sym::c(rng.uniformInt(1, 4)),
                       [&](Scope& p, std::vector<Val> ii) {
                           Val v = p.load(tile, {ii[0]});
                           Val w = p.binop(
                               randomBinop(rng), v,
                               p.constant(
                                   rng.uniform(-8.0, 8.0)));
                           p.store(dst, {ii[0]}, w);
                       });
                break;
              }
              case 1: { // Reduction into a register.
                Mem acc = s.reg("r" + tag, DType::f32());
                s.pipeReduce(
                    "R" + tag, {ctr(Sym::p(ts))}, Sym::c(1), acc,
                    Op::Add, [&](Scope& p, std::vector<Val> ii) {
                        return p.load(tile, {ii[0]});
                    });
                break;
              }
              case 2: { // Nested sequential scope.
                if (depth < 2) {
                    s.sequential("S" + tag, [&](Scope& inner) {
                        randomBody(inner, rng, tile, ts, depth + 1);
                    });
                } else {
                    Mem r = s.reg("q" + tag, randomType(rng));
                    s.pipe("Q" + tag, {ctr(4)}, Sym::c(1),
                           [&](Scope& p, std::vector<Val> ii) {
                               p.store(r,
                                       {p.constant(0.0,
                                                   DType::i32())},
                                       ii[0]);
                           });
                }
                break;
              }
              default: { // Unary chain pipe.
                Mem r = s.reg("u" + tag, DType::f32());
                s.pipe("U" + tag, {ctr(8)}, Sym::c(1),
                       [&](Scope& p, std::vector<Val> ii) {
                           Val v = p.unary(Op::Abs, ii[0]);
                           p.store(r,
                                   {p.constant(0.0, DType::i32())},
                                   v);
                       });
                break;
              }
            }
        }
    }

    static Design
    randomDesign(uint64_t seed)
    {
        ml::Rng rng(seed * 0x9e3779b97f4a7c15ull + seed);
        Design d("rand" + std::to_string(seed));
        ParamId ts = d.tileParam("ts", 4096);
        ParamId par = d.parParam("op", 96);
        d.constrain(CExpr::p(ts) % CExpr::p(par) == 0);
        Mem a = d.offchip("a", DType::f32(), {Sym::c(4096)});
        d.accel([&](Scope& s) {
            s.metaPipe(
                "M", {ctr(4096, Sym::p(ts))}, Sym::p(par), Sym::c(1),
                [&](Scope& m, std::vector<Val> iv) {
                    Mem tile =
                        m.bram("tile", DType::f32(), {Sym::p(ts)});
                    m.tileLoad(a, tile, {iv[0]}, {Sym::p(ts)});
                    randomBody(m, rng, tile, ts, 0);
                    if (seed % 3 == 0) { // Top-K priority queue.
                        Mem q = m.queue("pq", DType::f32(), Sym::c(16));
                        m.pipe("PQ", {ctr(Sym::p(ts))}, Sym::c(1),
                               [&](Scope& p, std::vector<Val> ii) {
                                   p.store(q,
                                           {p.constant(0.0,
                                                       DType::i32())},
                                           p.load(tile, {ii[0]}));
                               });
                    }
                });
        });
        return d;
    }
};

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty,
                         ::testing::Range(1, 13));

TEST_P(RoundTripProperty, RandomGraphsRoundTripByteIdentical)
{
    Design d = randomDesign(uint64_t(GetParam()));
    ASSERT_TRUE(validate(d.graph()).empty());
    std::string first = emitIR(d.graph());
    ParseResult res = parseIR(first);
    ASSERT_TRUE(res.ok()) << res.status.diag().str();
    EXPECT_EQ(emitIR(*res.graph), first);
    // A second lap stays fixed, too.
    ParseResult again = parseIR(emitIR(*res.graph));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(emitIR(*again.graph), first);
    EXPECT_TRUE(validate(*again.graph).empty());
}

/** Bitwise double equality: -0.0 != +0.0, NaNs compare by payload. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** A point's cycle count and every area field. */
std::array<double, 15>
fieldsOf(const dse::DesignPoint& p)
{
    const est::AreaEstimate& a = p.area;
    return {p.cycles,      a.raw.lutsPack, a.raw.lutsNoPack,
            a.raw.regs,    a.raw.dsps,     a.raw.brams,
            a.routeLuts,   a.dupRegs,      a.unavailLuts,
            a.dupBrams,    a.alms,         a.luts,
            a.regs,        a.dsps,         a.brams};
}

TEST_P(RoundTripProperty, BatchedEvaluationMatchesScalarBitForBit)
{
    Design d = randomDesign(uint64_t(GetParam()));
    const Graph& g = d.graph();
    const est::AreaEstimator& area = est::calibratedEstimator();
    est::RuntimeEstimator rt;
    dse::ExploreConfig cfg;
    cfg.maxPoints = 100;
    std::vector<dse::DesignPoint> ref;
    for (ParamBinding& b : dse::sampleGlobal(dse::ParamSpace(g), cfg)) {
        ref.emplace_back();
        ref.back().binding = std::move(b);
    }
    ASSERT_FALSE(ref.empty());
    const std::vector<dse::DesignPoint> fresh = ref;

    // The batched kernels must actually run: a plan with an
    // uncharacterized template class falls back to the scalar path.
    dse::Evaluator scalar(area, rt, g);
    ASSERT_TRUE(scalar.plan());
    ASSERT_TRUE(area.makeBatchPlan(*scalar.plan()).ok());
    size_t evaluated = 0;
    for (size_t i = 0; i < ref.size(); ++i) {
        scalar.evaluatePoint(ref[i], i);
        evaluated += ref[i].evaluated ? 1 : 0;
    }
    ASSERT_GT(evaluated, 0u);

    std::vector<size_t> idxs(ref.size());
    for (size_t i = 0; i < idxs.size(); ++i)
        idxs[i] = i;
    for (size_t chunk : {size_t(1), size_t(7), size_t(64)}) {
        std::vector<dse::DesignPoint> got = fresh;
        dse::Evaluator ev(area, rt, g);
        DiagSink sink;
        for (size_t lo = 0; lo < idxs.size(); lo += chunk)
            ev.evaluateBatch(got, &idxs[lo],
                             std::min(chunk, idxs.size() - lo), nullptr,
                             sink);
        for (size_t i = 0; i < ref.size(); ++i) {
            const dse::DesignPoint& a = ref[i];
            const dse::DesignPoint& b = got[i];
            const std::string at = "chunk " + std::to_string(chunk) +
                                   " point " + std::to_string(i);
            EXPECT_EQ(a.evaluated, b.evaluated) << at;
            EXPECT_EQ(a.failed, b.failed) << at;
            EXPECT_EQ(a.valid, b.valid) << at;
            const auto fa = fieldsOf(a), fb = fieldsOf(b);
            for (size_t f = 0; f < fa.size(); ++f)
                EXPECT_TRUE(sameBits(fa[f], fb[f]))
                    << at << " field " << f << ": " << fa[f] << " vs "
                    << fb[f];
        }
    }
}

/**
 * The batched area estimator featurizes every slot through
 * patchTemplateFields + AreaModel::featuresOf. The app registry,
 * conv2d and the random designs must between them produce every
 * (patch, base kind) pair the plan compiler emits, so the batch
 * equivalence suites exercise that single path on every kind.
 */
TEST(SlotCoverage, AppsAndRandomDesignsCoverEveryPatchKindPair)
{
    std::set<std::pair<SlotPatch, TemplateKind>> seen;
    auto add = [&seen](const Design& d) {
        DesignPlan plan(d.graph());
        for (const TemplateSlot& s : plan.templateSlots())
            seen.insert({s.patch, s.base.tkind});
    };
    for (const auto& app : apps::allApps())
        add(app.build(0.5));
    add(apps::buildConv2d());
    for (int seed = 1; seed < 13; ++seed)
        add(RoundTripProperty::randomDesign(uint64_t(seed)));

    using P = SlotPatch;
    using K = TemplateKind;
    const std::pair<SlotPatch, TemplateKind> want[] = {
        {P::Prim, K::PrimOp},
        {P::LoadStore, K::LoadStore},
        {P::Bram, K::BramInst},
        {P::Reg, K::RegInst},
        {P::Queue, K::QueueInst},
        {P::Counter, K::CounterInst},
        {P::Ctrl, K::PipeCtrl},
        {P::Ctrl, K::SeqCtrl},
        {P::Ctrl, K::ParCtrl},
        {P::CtrlSeqOrMeta, K::SeqCtrl},
        {P::Reduce, K::ReduceTree},
        {P::DelayLine, K::DelayLine},
        {P::Tile, K::TileTransfer},
    };
    for (const auto& [patch, kind] : want)
        EXPECT_TRUE(seen.count({patch, kind}))
            << "no slot with patch " << int(patch) << " and kind "
            << templateKindName(kind);
}

/** Divisor property over many integers. */
class DivisorProperty : public ::testing::TestWithParam<int64_t>
{
};

INSTANTIATE_TEST_SUITE_P(Numbers, DivisorProperty,
                         ::testing::Values(1, 2, 17, 96, 1536, 9600,
                                           38400, 187200000));

TEST_P(DivisorProperty, AllDivisorsDivideAndAreComplete)
{
    int64_t n = GetParam();
    auto divs = divisorsOf(n);
    for (int64_t d : divs)
        EXPECT_EQ(n % d, 0);
    // Complete: count matches brute force for small n.
    if (n <= 10000) {
        int64_t count = 0;
        for (int64_t d = 1; d <= n; ++d)
            count += (n % d == 0) ? 1 : 0;
        EXPECT_EQ(int64_t(divs.size()), count);
    }
    // Sorted and unique.
    for (size_t i = 1; i < divs.size(); ++i)
        EXPECT_LT(divs[i - 1], divs[i]);
}

TEST_P(DivisorProperty, LargestDivisorRespectsCapAndMultiple)
{
    int64_t n = GetParam();
    for (int64_t cap : {1LL, 7LL, 100LL, 1024LL}) {
        int64_t v = largestDivisorLE(n, cap, 8);
        EXPECT_EQ(n % v, 0);
        EXPECT_LE(v, std::max<int64_t>(1, cap));
    }
}

} // namespace
} // namespace dhdl
