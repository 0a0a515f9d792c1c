#include <gtest/gtest.h>

#include <sstream>

#include "core/error.hh"
#include "ml/serialize.hh"

namespace dhdl::ml {
namespace {

/** The magic line every record must start with. */
const std::string kHeader = "# dhdl-model v1\n";

bool
contains(const std::string& s, const std::string& part)
{
    return s.find(part) != std::string::npos;
}

/** `load` throws a ParseError whose message contains `part`. */
template <typename Load>
void
expectParseError(Load load, const std::string& part)
{
    try {
        load();
        ADD_FAILURE() << "no error; expected \"" << part << "\"";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), DiagCode::ParseError) << e.what();
        EXPECT_TRUE(contains(e.what(), part)) << e.what();
    }
}

TEST(SerializeTest, DoublesRoundTrip)
{
    std::stringstream ss;
    std::vector<double> v{1.0, -2.5, 3.14159265358979,
                          1.7976931348623157e308, 1e-300};
    writeDoubles(ss, "vec", v);
    auto got = readDoubles(ss, "vec");
    EXPECT_EQ(got, v);
}

TEST(SerializeTest, EmptyVectorRoundTrip)
{
    std::stringstream ss;
    writeDoubles(ss, "empty", {});
    EXPECT_TRUE(readDoubles(ss, "empty").empty());
}

TEST(SerializeTest, TagMismatchIsFatal)
{
    std::stringstream ss;
    writeDoubles(ss, "alpha", {1.0});
    expectParseError([&] { readDoubles(ss, "beta"); },
                     "expected 'beta', got 'alpha'");
}

TEST(SerializeTest, TruncationIsFatal)
{
    std::stringstream ss(kHeader + "vec 3 v1\n1.0 2.0");
    expectParseError([&] { readDoubles(ss, "vec"); },
                     "truncated payload for 'vec'");
}

TEST(SerializeTest, LinearModelRoundTripPredictsIdentically)
{
    LinearModel m;
    m.fit({{1, 2}, {2, 1}, {3, 5}, {-1, 0}}, {7, 5, 22, -3});
    std::stringstream ss;
    saveLinear(ss, m);
    LinearModel back = loadLinear(ss);
    for (double a : {-2.0, 0.0, 1.5}) {
        for (double b : {-1.0, 4.0})
            EXPECT_DOUBLE_EQ(back.predict({a, b}),
                             m.predict({a, b}));
    }
}

TEST(SerializeTest, MlpRoundTripBitExact)
{
    Mlp net({4, 6, 2}, 77);
    std::stringstream ss;
    saveMlp(ss, net);
    Mlp back = loadMlp(ss);
    EXPECT_EQ(back.layers(), net.layers());
    EXPECT_EQ(back.params(), net.params());
    auto in = std::vector<double>{0.1, -0.3, 0.7, 0.2};
    EXPECT_EQ(back.forward(in), net.forward(in));
}

TEST(SerializeTest, MlpWeightCountMismatchIsFatal)
{
    std::stringstream ss;
    writeDoubles(ss, "mlp_layers", {2, 2});
    writeDoubles(ss, "mlp_weights", {1.0}); // needs 2*2+2 = 6
    expectParseError([&] { loadMlp(ss); }, "MLP weight count mismatch");
}

TEST(SerializeTest, ScalerRoundTrip)
{
    MinMaxScaler s;
    s.fit({{0, 5, -2}, {10, 6, 8}});
    std::stringstream ss;
    saveScaler(ss, s);
    MinMaxScaler back = loadScaler(ss);
    for (size_t c = 0; c < 3; ++c) {
        EXPECT_DOUBLE_EQ(back.scaleColumn(c, 3.3),
                         s.scaleColumn(c, 3.3));
        EXPECT_DOUBLE_EQ(back.inverseColumn(c, 0.4),
                         s.inverseColumn(c, 0.4));
    }
}

TEST(SerializeTest, ConcatenatedStreamsReadInOrder)
{
    // The estimator writes several records back to back.
    std::stringstream ss;
    LinearModel m;
    m.fit({{1.0}, {2.0}}, {2.0, 4.0});
    saveLinear(ss, m);
    Mlp net({2, 3, 1}, 5);
    saveMlp(ss, net);
    writeDoubles(ss, "tail", {42.0});

    LinearModel m2 = loadLinear(ss);
    Mlp n2 = loadMlp(ss);
    auto tail = readDoubles(ss, "tail");
    EXPECT_DOUBLE_EQ(m2.predict({3.0}), m.predict({3.0}));
    EXPECT_EQ(n2.params(), net.params());
    EXPECT_DOUBLE_EQ(tail.front(), 42.0);
}

TEST(SerializeHardening, MagicHeaderIsWrittenAndAccepted)
{
    std::stringstream ss;
    writeDoubles(ss, "vec", {1.0, 2.0});
    EXPECT_EQ(ss.str().rfind("# dhdl-model v1\n", 0), 0u);
    EXPECT_EQ(readDoubles(ss, "vec"),
              (std::vector<double>{1.0, 2.0}));
}

TEST(SerializeHardening, HeaderlessRecordIsRefused)
{
    // A record that starts straight at its header line is refused,
    // naming the missing magic line.
    std::stringstream ss("vec 2 v1\n1.5 -2.5\n");
    expectParseError([&] { readDoubles(ss, "vec"); },
                     "'vec' has no '# dhdl-model v1' header");

    // Every record needs its own: the second of two is refused too.
    std::stringstream two;
    writeDoubles(two, "a", {1.0});
    two << "b 1 v1\n2.0\n";
    EXPECT_EQ(readDoubles(two, "a"), (std::vector<double>{1.0}));
    expectParseError([&] { readDoubles(two, "b"); },
                     "'b' has no '# dhdl-model v1' header");
}

TEST(SerializeHardening, UnknownMagicVersionIsRejected)
{
    std::stringstream ss("# dhdl-model v99\nvec 1 v1\n1.0\n");
    expectParseError([&] { readDoubles(ss, "vec"); },
                     "unsupported model file version: '# dhdl-model v99'");
}

TEST(SerializeHardening, AbsurdCountIsRejectedBeforeAllocation)
{
    // A corrupted count line must fail a parse, not allocate
    // petabytes and then discover the stream is short.
    std::stringstream ss(kHeader + "vec 99999999999999999 v1\n1.0\n");
    expectParseError([&] { readDoubles(ss, "vec"); }, "limit is");
}

TEST(SerializeHardening, NonFiniteValuesAreRejected)
{
    std::stringstream ss(kHeader + "vec 2 v1\n1.0 nan\n");
    expectParseError([&] { readDoubles(ss, "vec"); },
                     "non-finite value in model record 'vec'");
}

TEST(SerializeHardening, CorruptMlpLayersAreRejected)
{
    {
        // Non-integral layer size.
        std::stringstream ss;
        writeDoubles(ss, "mlp_layers", {2.5, 3});
        writeDoubles(ss, "mlp_weights", {});
        expectParseError([&] { loadMlp(ss); }, "MLP layer size out of range");
    }
    {
        // A giant layer must not turn into a giant allocation.
        std::stringstream ss;
        writeDoubles(ss, "mlp_layers", {2, 1e15});
        writeDoubles(ss, "mlp_weights", {});
        expectParseError([&] { loadMlp(ss); }, "MLP layer size out of range");
    }
    {
        // A single layer is not a network.
        std::stringstream ss;
        writeDoubles(ss, "mlp_layers", {3});
        writeDoubles(ss, "mlp_weights", {});
        expectParseError([&] { loadMlp(ss); }, "MLP layer count out of range");
    }
}

TEST(SerializeHardening, ParseFailuresCarryParseErrorCode)
{
    std::stringstream ss(kHeader + "vec 3 v1\n1.0 2.0");
    try {
        readDoubles(ss, "vec");
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), DiagCode::ParseError);
        EXPECT_TRUE(contains(e.what(), "truncated payload")) << e.what();
    }
}

TEST(SerializeHardening, TryLoadReturnsStructuredStatus)
{
    // Damaged input: an error Status with a ParseError Diag, no
    // exception crossing the boundary.
    std::stringstream bad(kHeader + "mlp_layers 1 v1\nnot-a-number\n");
    Mlp net({2, 2});
    Status st = tryLoadMlp(bad, net);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.diag().code, DiagCode::ParseError);
    EXPECT_EQ(st.diag().stage, "model-load");
    EXPECT_TRUE(contains(st.diag().message,
                         "bad value 'not-a-number' in model record "
                         "'mlp_layers'"))
        << st.diag().message;

    // Intact input: loads and reports ok.
    std::stringstream good;
    Mlp ref({3, 4, 1}, 11);
    saveMlp(good, ref);
    Status ok = tryLoadMlp(good, net);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(net.params(), ref.params());

    std::stringstream badLin(kHeader + "linear 0 v1\n\n");
    LinearModel lm;
    Status lin = tryLoadLinear(badLin, lm);
    ASSERT_FALSE(lin.ok());
    EXPECT_TRUE(contains(lin.diag().message, "linear model payload empty"))
        << lin.diag().message;

    std::stringstream badScaler(kHeader + "scaler_lo 1 v1\n1.0\n" +
                                kHeader + "scaler_hi 2 v1\n1.0 2.0\n");
    MinMaxScaler sc;
    Status scaler = tryLoadScaler(badScaler, sc);
    ASSERT_FALSE(scaler.ok());
    EXPECT_TRUE(contains(scaler.diag().message,
                         "scaler bound size mismatch"))
        << scaler.diag().message;
}

SurrogateBundle
makeBundle(bool mlp)
{
    SurrogateBundle b;
    b.features.fit({{0, 1, -2}, {4, 3, 2}});
    b.targets.fit({{1, 10}, {5, 20}});
    b.useMlp = mlp;
    if (mlp) {
        b.nets.emplace_back(std::vector<int>{3, 4, 1}, 7);
        b.nets.emplace_back(std::vector<int>{3, 4, 1}, 9);
    } else {
        LinearModel m;
        m.fit({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}},
              {1, 2, 3, 6});
        b.linears.push_back(m);
        b.linears.push_back(std::move(m));
    }
    return b;
}

TEST(SurrogateBundleTest, MlpRoundTripPredictsBitExact)
{
    SurrogateBundle b = makeBundle(true);
    std::stringstream ss;
    saveSurrogateBundle(ss, b);
    SurrogateBundle back = loadSurrogateBundle(ss);
    ASSERT_TRUE(back.useMlp);
    ASSERT_EQ(back.numModels(), 2u);
    const std::vector<double> in{0.2, -0.4, 0.9};
    for (size_t t = 0; t < 2; ++t)
        EXPECT_EQ(back.nets[t].forward(in), b.nets[t].forward(in));
    for (size_t c = 0; c < 3; ++c)
        EXPECT_DOUBLE_EQ(back.features.scaleColumn(c, 0.5),
                         b.features.scaleColumn(c, 0.5));
}

TEST(SurrogateBundleTest, LinearRoundTrip)
{
    SurrogateBundle b = makeBundle(false);
    std::stringstream ss;
    saveSurrogateBundle(ss, b);
    SurrogateBundle back = loadSurrogateBundle(ss);
    ASSERT_FALSE(back.useMlp);
    ASSERT_EQ(back.numModels(), 2u);
    EXPECT_DOUBLE_EQ(back.linears[0].predict({1, 2, 3}),
                     b.linears[0].predict({1, 2, 3}));
}

TEST(SurrogateBundleHardening, MisuseCorpusAllFailStructured)
{
    SurrogateBundle b = makeBundle(true);
    std::stringstream ref;
    saveSurrogateBundle(ref, b);
    const std::string bytes = ref.str();

    // Every mutation below must produce a clean ParseError status —
    // never a partial bundle, a crash, or a giant allocation.
    std::vector<std::string> corpus;
    corpus.push_back("");                         // empty file
    corpus.push_back("# dhdl-model v1\nvec 1 v1\n1.0\n"); // foreign
    corpus.push_back("# dhdl-surrogate v2 8 00000000\nxxxxxxxx");
    corpus.push_back("# dhdl-surrogate v1 99999999999999 00000000\n");
    corpus.push_back(bytes.substr(0, bytes.size() / 2)); // truncated
    corpus.push_back(bytes.substr(0, bytes.find('\n') + 1)); // header only
    {
        std::string flip = bytes;          // one bit flip in the body
        flip[bytes.find('\n') + 10] ^= 0x4;
        corpus.push_back(flip);
    }
    {
        std::string lied = bytes;          // header claims more bytes
        lied.replace(lied.find(' ', 20), 0, "9");
        corpus.push_back(lied);
    }
    for (size_t i = 0; i < corpus.size(); ++i) {
        std::stringstream ss(corpus[i]);
        SurrogateBundle out;
        Status st = tryLoadSurrogateBundle(ss, out);
        ASSERT_FALSE(st.ok()) << "corpus entry " << i;
        EXPECT_EQ(st.diag().code, DiagCode::ParseError)
            << "corpus entry " << i;
    }
}

TEST(SurrogateBundleHardening, InconsistentModelCountRejected)
{
    // One model per target column is the consistency contract: a
    // bundle carrying one net against a two-column target scaler
    // passes the CRC (it was honestly written) but must fail the
    // record-level validation.
    SurrogateBundle b = makeBundle(true);
    b.nets.pop_back();
    std::stringstream ss;
    saveSurrogateBundle(ss, b);
    SurrogateBundle out;
    Status st = tryLoadSurrogateBundle(ss, out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.diag().code, DiagCode::ParseError);
    EXPECT_NE(st.diag().message.find("model count"),
              std::string::npos);
}

} // namespace
} // namespace dhdl::ml
