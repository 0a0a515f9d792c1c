#include "ml/serialize.hh"

#include <charconv>
#include <cmath>
#include <iomanip>
#include <limits>

#include "core/error.hh"

namespace dhdl::ml {

namespace {

constexpr const char* kMagic = "# dhdl-model v1";
constexpr const char* kMagicPrefix = "# dhdl-model";

/** require() that always classifies the failure as a parse error. */
void
check(bool cond, const std::string& msg)
{
    if (!cond)
        fatal(msg, DiagCode::ParseError);
}

/**
 * Consume the comment lines before record `tag`'s header. One of them
 * must be the magic line, in a version this reader understands; a
 * record without it is refused.
 */
void
skipHeaderLines(std::istream& is, const std::string& tag)
{
    bool magic = false;
    while (is >> std::ws && is.peek() == '#') {
        std::string line;
        std::getline(is, line);
        if (line.compare(0, std::string(kMagicPrefix).size(),
                         kMagicPrefix) == 0) {
            check(line == kMagic,
                  "unsupported model file version: '" + line + "'");
            magic = true;
        }
    }
    check(magic, "model record '" + tag + "' has no '" +
                     std::string(kMagic) + "' header line");
}

} // namespace

void
writeDoubles(std::ostream& os, const std::string& tag,
             const std::vector<double>& v)
{
    os << kMagic << "\n";
    os << tag << " " << v.size() << " v1\n";
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    for (size_t i = 0; i < v.size(); ++i)
        os << v[i] << (i + 1 == v.size() ? "\n" : " ");
    if (v.empty())
        os << "\n";
}

std::vector<double>
readDoubles(std::istream& is, const std::string& tag)
{
    skipHeaderLines(is, tag);
    std::string got_tag, version;
    size_t count = 0;
    is >> got_tag >> count >> version;
    check(bool(is), "truncated model file reading '" + tag + "'");
    check(got_tag == tag, "model file tag mismatch: expected '" + tag +
                              "', got '" + got_tag + "'");
    check(version == "v1",
          "unsupported model format version " + version);
    // Validate the count before trusting it with an allocation: a
    // corrupted header must fail a parse, not exhaust memory.
    check(count <= kMaxModelDoubles,
          "model record '" + tag + "' claims " + std::to_string(count) +
              " values; limit is " + std::to_string(kMaxModelDoubles));
    // Values parse as whole tokens: stream extraction stops short of
    // "nan" or "inf", which would then read as a truncated payload.
    std::vector<double> v(count);
    std::string tok;
    for (auto& x : v) {
        is >> tok;
        check(bool(is), "truncated payload for '" + tag + "'");
        const char* end = tok.data() + tok.size();
        auto [last, ec] = std::from_chars(tok.data(), end, x);
        check(ec == std::errc() && last == end,
              "bad value '" + tok + "' in model record '" + tag + "'");
        check(std::isfinite(x),
              "non-finite value in model record '" + tag + "'");
    }
    return v;
}

void
saveLinear(std::ostream& os, const LinearModel& m)
{
    auto coeffs = m.weights();
    coeffs.push_back(m.bias());
    writeDoubles(os, "linear", coeffs);
}

LinearModel
loadLinear(std::istream& is)
{
    auto coeffs = readDoubles(is, "linear");
    check(!coeffs.empty(), "linear model payload empty");
    double b = coeffs.back();
    coeffs.pop_back();
    return LinearModel::fromWeights(std::move(coeffs), b);
}

void
saveMlp(std::ostream& os, const Mlp& net)
{
    std::vector<double> layers(net.layers().begin(),
                               net.layers().end());
    writeDoubles(os, "mlp_layers", layers);
    writeDoubles(os, "mlp_weights", net.params());
}

Mlp
loadMlp(std::istream& is)
{
    auto layer_doubles = readDoubles(is, "mlp_layers");
    // Every layer size is validated before the Mlp is constructed:
    // a corrupted record must not turn into a giant or negative
    // allocation inside the network.
    check(layer_doubles.size() >= 2 && layer_doubles.size() <= 64,
          "MLP layer count out of range in model file");
    std::vector<int> layers;
    layers.reserve(layer_doubles.size());
    for (double d : layer_doubles) {
        check(std::isfinite(d) && d == std::floor(d) && d >= 1 &&
                  d <= 1e6,
              "MLP layer size out of range in model file");
        layers.push_back(int(d));
    }
    // The weights record must match the layers before the network is
    // built: 64 layers of 10^6 would ask Mlp for 6.3e13 weights.
    size_t num_weights = 0;
    for (size_t l = 0; l + 1 < layers.size(); ++l)
        num_weights += size_t(layers[l] + 1) * size_t(layers[l + 1]);
    auto weights = readDoubles(is, "mlp_weights");
    check(weights.size() == num_weights,
          "MLP weight count mismatch in model file");
    Mlp net(layers);
    net.params() = std::move(weights);
    return net;
}

void
saveScaler(std::ostream& os, const MinMaxScaler& s)
{
    writeDoubles(os, "scaler_lo", s.lowerBounds());
    writeDoubles(os, "scaler_hi", s.upperBounds());
}

MinMaxScaler
loadScaler(std::istream& is)
{
    auto lo = readDoubles(is, "scaler_lo");
    auto hi = readDoubles(is, "scaler_hi");
    check(lo.size() == hi.size(), "scaler bound size mismatch");
    return MinMaxScaler::fromBounds(std::move(lo), std::move(hi));
}

} // namespace dhdl::ml
