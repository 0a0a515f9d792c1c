#include "ml/serialize.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>

#include "core/checksum.hh"
#include "core/error.hh"

namespace dhdl::ml {

namespace {

constexpr const char* kMagic = "# dhdl-model v1";
constexpr const char* kMagicPrefix = "# dhdl-model";
constexpr const char* kBundleMagic = "# dhdl-surrogate v1";
/** Bundle bodies are small (two scalers + a couple of tiny models);
 *  a header claiming more than this is corruption, not data. */
constexpr size_t kMaxBundleBytes = 64u << 20;
constexpr size_t kMaxBundleModels = 16;

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
    Mlp net(layers);
    auto weights = readDoubles(is, "mlp_weights");
    check(weights.size() == net.numWeights(),
          "MLP weight count mismatch in model file");
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

namespace {

template <typename Load, typename Out>
Status
tryLoad(std::istream& is, Out& out, Load load, const char* what)
{
    try {
        out = load(is);
        return {};
    } catch (const FatalError& e) {
        Diag d;
        d.code = e.code();
        d.stage = "model-load";
        d.message = std::string(what) + ": " + e.what();
        return Status::error(std::move(d));
    } catch (const std::exception& e) {
        Diag d;
        d.code = DiagCode::ParseError;
        d.stage = "model-load";
        d.message = std::string(what) + ": " + e.what();
        return Status::error(std::move(d));
    }
}

} // namespace

Status
tryLoadLinear(std::istream& is, LinearModel& out)
{
    return tryLoad(is, out, [](std::istream& s) { return loadLinear(s); },
                   "linear model");
}

Status
tryLoadMlp(std::istream& is, Mlp& out)
{
    return tryLoad(is, out, [](std::istream& s) { return loadMlp(s); },
                   "mlp model");
}

Status
tryLoadScaler(std::istream& is, MinMaxScaler& out)
{
    return tryLoad(is, out, [](std::istream& s) { return loadScaler(s); },
                   "scaler");
}

void
saveSurrogateBundle(std::ostream& os, const SurrogateBundle& b)
{
    // Serialize the body first so the header can carry its byte
    // count and CRC-32: the whole artifact becomes self-validating,
    // not just each record.
    std::ostringstream body;
    writeDoubles(body, "surrogate_meta",
                 {b.useMlp ? 1.0 : 0.0, double(b.numModels())});
    saveScaler(body, b.features);
    saveScaler(body, b.targets);
    if (b.useMlp) {
        for (const Mlp& net : b.nets)
            saveMlp(body, net);
    } else {
        for (const LinearModel& m : b.linears)
            saveLinear(body, m);
    }
    const std::string bytes = body.str();
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x", unsigned(crc32(bytes)));
    os << kBundleMagic << " " << bytes.size() << " " << crc << "\n"
       << bytes;
}

SurrogateBundle
loadSurrogateBundle(std::istream& is)
{
    std::string header;
    std::getline(is, header);
    check(bool(is), "surrogate bundle: missing header");
    unsigned long long nbytes = 0;
    unsigned crc = 0;
    check(std::sscanf(header.c_str(), "# dhdl-surrogate v1 %llu %8x",
                      &nbytes, &crc) == 2,
          "surrogate bundle: unrecognized header '" + header + "'");
    check(nbytes <= kMaxBundleBytes,
          "surrogate bundle: body size " + std::to_string(nbytes) +
              " exceeds the " + std::to_string(kMaxBundleBytes) +
              "-byte limit");
    // Read and checksum the exact body before parsing one record: a
    // truncated file or a flipped bit fails here, wholesale.
    std::string bytes(size_t(nbytes), '\0');
    is.read(bytes.data(), std::streamsize(nbytes));
    check(size_t(is.gcount()) == size_t(nbytes),
          "surrogate bundle: truncated body (" +
              std::to_string(is.gcount()) + " of " +
              std::to_string(nbytes) + " bytes)");
    check(crc32(bytes) == crc,
          "surrogate bundle: body CRC mismatch");

    std::istringstream body(bytes);
    auto meta = readDoubles(body, "surrogate_meta");
    check(meta.size() == 2, "surrogate bundle: malformed meta record");
    check(meta[0] == 0.0 || meta[0] == 1.0,
          "surrogate bundle: bad model-kind flag");
    check(meta[1] == std::floor(meta[1]) && meta[1] >= 1 &&
              meta[1] <= double(kMaxBundleModels),
          "surrogate bundle: model count out of range");

    SurrogateBundle out;
    out.useMlp = meta[0] == 1.0;
    out.features = loadScaler(body);
    out.targets = loadScaler(body);
    const size_t n = size_t(meta[1]);
    for (size_t i = 0; i < n; ++i) {
        if (out.useMlp)
            out.nets.push_back(loadMlp(body));
        else
            out.linears.push_back(loadLinear(body));
    }
    check(out.features.columns() > 0,
          "surrogate bundle: empty feature scaler");
    check(out.targets.columns() == n,
          "surrogate bundle: target scaler arity does not match the "
          "model count");
    if (out.useMlp) {
        for (const Mlp& net : out.nets) {
            check(size_t(net.layers().front()) ==
                      out.features.columns(),
                  "surrogate bundle: model input arity does not match "
                  "the feature scaler");
            check(net.layers().back() == 1,
                  "surrogate bundle: model must be single-output");
        }
    } else {
        for (const LinearModel& m : out.linears)
            check(m.weights().size() == out.features.columns(),
                  "surrogate bundle: model input arity does not match "
                  "the feature scaler");
    }
    return out;
}

Status
tryLoadSurrogateBundle(std::istream& is, SurrogateBundle& out)
{
    return tryLoad(
        is, out,
        [](std::istream& s) { return loadSurrogateBundle(s); },
        "surrogate bundle");
}

} // namespace dhdl::ml
