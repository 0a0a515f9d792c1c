#include "dse/checkpoint.hh"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>

#include "core/checksum.hh"
#include "core/faultinject.hh"
#include "core/printer.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dhdl::dse {

namespace {

constexpr std::string_view kMagicPrefix = "# dhdl-explore-checkpoint ";
constexpr std::string_view kMagicV2 = "# dhdl-explore-checkpoint v2";

/** Append `v` as `digits` lowercase hex digits, zero-padded. */
void
appendHex(std::string& out, uint64_t v, int digits)
{
    static constexpr char kHex[] = "0123456789abcdef";
    char buf[16];
    for (int i = digits - 1; i >= 0; --i, v >>= 4)
        buf[i] = kHex[v & 0xf];
    out.append(buf, size_t(digits));
}

template <typename T>
void
appendInt(std::string& out, T v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/** `%.17g`, byte for byte the historical `setprecision(17)` form:
 *  enough digits that every double reloads bit-identically. */
void
appendDouble(std::string& out, double v)
{
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                  std::chars_format::general, 17)
                        .ptr);
}

/** Free-form text with the characters that would break the line
 *  (and, with `commas`, the field) structure replaced. */
void
appendClean(std::string& out, const std::string& s, bool commas)
{
    for (char c : s)
        out.push_back(c == '\n' ? ' ' : commas && c == ',' ? ';' : c);
}

/** Append one record's finished line, `payload,crc32\n`.
 *  `withRound` inserts the search-round column (non-random
 *  strategies only, keeping historical files byte-identical). */
void
appendRecord(std::string& out, size_t index, const DesignPoint& p,
             bool withRound)
{
    const size_t start = out.size();
    appendInt(out, index);
    out += p.valid ? ",1," : ",0,";
    out += p.failed ? "1," : "0,";
    out += diagCodeName(p.failCode);
    out += ',';
    appendClean(out, p.failStage, true);
    for (double v : {p.area.alms, p.area.luts, p.area.regs, p.area.dsps,
                     p.area.brams, p.cycles}) {
        out += ',';
        appendDouble(out, v);
    }
    out += ',';
    for (size_t j = 0; j < p.binding.values.size(); ++j) {
        if (j)
            out += ' ';
        appendInt(out, p.binding.values[j]);
    }
    if (withRound) {
        out += ',';
        appendInt(out, p.round);
    }
    // The reason may contain commas; it is delimited by the CRC
    // being the *last* comma-field of the line.
    out += ',';
    appendClean(out, p.failReason, false);
    const uint32_t crc = crc32(std::string_view(out).substr(start));
    out += ',';
    appendHex(out, crc, 8);
    out += '\n';
}

/** Parse all of `s` as a T; false unless every byte is consumed
 *  (so `1.5abc` is malformed, not 1.5). */
template <typename T>
bool
parseAll(std::string_view s, T& out)
{
    const char* end = s.data() + s.size();
    auto r = std::from_chars(s.data(), end, out);
    return r.ec == std::errc() && r.ptr == end;
}

/** The space-separated binding values of `s` into `out`; false when
 *  a value is malformed. */
bool
parseBinding(std::string_view s, std::vector<int64_t>& out)
{
    out.clear();
    while (!s.empty()) {
        const size_t sp = s.find(' ');
        int64_t v = 0;
        if (!parseAll(s.substr(0, sp), v))
            return false;
        out.push_back(v);
        if (sp == std::string_view::npos)
            break;
        s.remove_prefix(sp + 1);
    }
    return true;
}

/** Write `bytes` to an fd completely; false on any error. */
bool
writeAll(int fd, const std::string& bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n <= 0)
            return false;
        off += size_t(n);
    }
    return true;
}

/** Byte offsets (start, end) of every data line in `content`. */
std::vector<std::pair<size_t, size_t>>
dataLineSpans(const std::string& content)
{
    std::vector<std::pair<size_t, size_t>> spans;
    size_t pos = 0;
    while (pos < content.size()) {
        size_t nl = content.find('\n', pos);
        size_t end = nl == std::string::npos ? content.size() : nl;
        if (end > pos && content[pos] != '#')
            spans.emplace_back(pos, end);
        if (nl == std::string::npos)
            break;
        pos = nl + 1;
    }
    return spans;
}

/**
 * Apply armed checkpoint faults to the serialized content. Returns
 * true when the content must additionally be written *non-atomically*
 * (the torn-tail injection simulates a writer killed mid-write).
 */
bool
injectFaults(std::string& content)
{
    if (!fault::active())
        return false;
    if (auto rec = fault::armed(fault::Point::CorruptRecord)) {
        auto spans = dataLineSpans(content);
        if (size_t(*rec) <= spans.size()) {
            // Flip one payload byte of record `rec` (1-based); any
            // change breaks that record's CRC on load.
            size_t at = spans[size_t(*rec) - 1].first;
            content[at] = content[at] == 'x' ? 'y' : 'x';
            obs::addCounter("fault.fired.corrupt-record", 1);
        }
    }
    if (fault::hit(fault::Point::TornCheckpoint)) {
        auto spans = dataLineSpans(content);
        if (!spans.empty()) {
            auto [lo, hi] = spans.back();
            content.resize(lo + (hi - lo) / 2); // cut mid-record
        }
        return true;
    }
    return false;
}

Status
mismatch(const std::string& path, const std::string& why)
{
    return Status::error(DiagCode::CheckpointMismatch, "checkpoint",
                         "checkpoint '" + path + "' refused: " + why);
}

} // namespace

CheckpointMeta
makeCheckpointMeta(const Graph& g, const ParamSpace& space,
                   uint64_t seed, size_t total)
{
    CheckpointMeta meta;
    meta.designHash = fnv1a(emitIR(g));
    std::ostringstream os;
    for (size_t p = 0; p < space.numParams(); ++p) {
        for (int64_t v : space.legalValues(p))
            os << v << " ";
        os << ";";
    }
    meta.spaceHash = fnv1a(os.str());
    meta.seed = seed;
    meta.total = total;
    meta.nparams = g.params().size();
    return meta;
}

CheckpointWriter::CheckpointWriter(const CheckpointMeta& meta)
    : withRound_(!meta.strategy.empty() && meta.strategy != "random")
{
    header_ = kMagicV2;
    header_ += "\n# design=";
    appendHex(header_, meta.designHash, 16);
    header_ += " space=";
    appendHex(header_, meta.spaceHash, 16);
    header_ += " seed=";
    appendInt(header_, meta.seed);
    header_ += " total=";
    appendInt(header_, meta.total);
    header_ += " nparams=";
    appendInt(header_, meta.nparams);
    header_ += '\n';
    if (withRound_) {
        header_ += "# strategy=" + meta.strategy + "\n";
        header_ += "# columns: index,valid,failed,failcode,failstage,"
                   "alms,luts,regs,dsps,brams,cycles,binding,round,"
                   "failreason,crc32\n";
    } else {
        header_ += "# columns: index,valid,failed,failcode,failstage,"
                   "alms,luts,regs,dsps,brams,cycles,binding,"
                   "failreason,crc32\n";
    }
}

const std::string&
CheckpointWriter::render(const std::vector<DesignPoint>& points)
{
    if (lines_.size() < points.size())
        lines_.resize(points.size());
    uint64_t rendered = 0;
    content_.assign(header_);
    for (size_t i = 0; i < points.size(); ++i) {
        if (!points[i].evaluated)
            continue;
        Line& l = lines_[i];
        if (l.len == 0) {
            l.off = arena_.size();
            appendRecord(arena_, i, points[i], withRound_);
            l.len = arena_.size() - l.off;
            ++rendered;
        }
        content_.append(arena_, l.off, l.len);
    }
    static const obs::Counter cRendered("dse.checkpoint.rendered");
    cRendered.add(rendered);
    return content_;
}

bool
CheckpointWriter::write(const std::string& path,
                        const std::vector<DesignPoint>& points)
{
    DHDL_OBS_SPAN("dse", "checkpoint-write");
    render(points);
    // content_ is reassembled from the cache by every render(), so an
    // injected fault damages this write's bytes and nothing after.
    const bool torn = injectFaults(content_);
    static const obs::Counter cWrites("dse.checkpoint.writes");
    static const obs::Counter cBytes("dse.checkpoint.bytes");
    cWrites.add(1);
    cBytes.add(content_.size());
    if (torn) {
        // Torn-tail injection: bypass the atomic protocol on
        // purpose, leaving exactly the file a killed non-atomic
        // writer would have left.
        std::ofstream os(path, std::ios::trunc | std::ios::binary);
        os << content_;
        return bool(os);
    }
    std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    bool ok = writeAll(fd, content_) && ::fsync(fd) == 0;
    ok = (::close(fd) == 0) && ok;
    ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok)
        std::remove(tmp.c_str());
    return ok;
}

std::string
renderCheckpoint(const CheckpointMeta& meta,
                 const std::vector<DesignPoint>& points)
{
    CheckpointWriter w(meta);
    return w.render(points);
}

bool
writeCheckpointFile(const std::string& path,
                    const CheckpointMeta& meta,
                    const std::vector<DesignPoint>& points)
{
    CheckpointWriter w(meta);
    return w.write(path, points);
}

Status
loadCheckpointFile(const std::string& path, const Graph& g,
                   const CheckpointMeta& expect,
                   std::vector<DesignPoint>& points, DiagSink& sink,
                   CheckpointLoadStats* statsOut)
{
    DHDL_OBS_SPAN("dse", "checkpoint-load");
    CheckpointLoadStats ls;
    auto finish = [&] {
        if (statsOut)
            *statsOut = ls;
        static const obs::Counter cLoads("dse.checkpoint.loads");
        static const obs::Counter cRest("dse.checkpoint.restored");
        static const obs::Counter cTrunc("dse.checkpoint.truncated");
        static const obs::Counter cCorr("dse.checkpoint.corrupt");
        static const obs::Counter cStale("dse.checkpoint.stale");
        cLoads.add(1);
        cRest.add(ls.restored);
        cTrunc.add(ls.truncated);
        cCorr.add(ls.corrupt);
        cStale.add(ls.stale);
    };
    auto warn = [&](const std::string& msg) {
        sink.report(
            Diag::warning(DiagCode::CheckpointIo, "checkpoint", msg));
    };

    std::ifstream is(path, std::ios::binary);
    if (!is) {
        finish();
        return Status::error(DiagCode::CheckpointIo, "checkpoint",
                             "checkpoint '" + path + "' not found");
    }
    // The whole file in one buffer; every line and field below is a
    // view into it.
    std::ostringstream slurp;
    slurp << is.rdbuf();
    const std::string content = std::move(slurp).str();
    std::vector<std::string_view> lines;
    for (std::string_view rest = content; !rest.empty();) {
        const size_t nl = rest.find('\n');
        lines.push_back(rest.substr(0, nl));
        if (nl == std::string_view::npos)
            break;
        rest.remove_prefix(nl + 1);
    }
    if (lines.empty()) {
        finish();
        return mismatch(path, "file is empty");
    }

    if (lines[0] != kMagicV2) {
        finish();
        if (lines[0].starts_with(kMagicPrefix))
            return mismatch(
                path, "format " +
                          std::string(lines[0].substr(
                              kMagicPrefix.size())) +
                          " is not supported (only v2 is read)");
        return mismatch(path, "unknown format");
    }

    // Header validation: every identity field must agree before a
    // single record is merged.
    unsigned long long seed = 0;
    unsigned long long design = 0, spaceHash = 0;
    size_t total = 0, nparams = 0;
    if (lines.size() < 2 ||
        std::sscanf(std::string(lines[1]).c_str(),
                    "# design=%llx space=%llx seed=%llu total=%zu "
                    "nparams=%zu",
                    &design, &spaceHash, &seed, &total,
                    &nparams) != 5) {
        finish();
        return mismatch(path, "malformed header");
    }
    std::string why;
    auto check = [&](bool same, const char* what) {
        if (!same)
            why += why.empty() ? what : (std::string(", ") + what);
    };
    check(design == expect.designHash, "design");
    check(spaceHash == expect.spaceHash, "parameter space");
    check(seed == expect.seed, "seed");
    check(total == expect.total, "sample count");
    check(nparams == expect.nparams, "parameter count");
    if (!why.empty()) {
        finish();
        return mismatch(path, "written by a different exploration (" +
                                  why + " mismatch)");
    }

    // A `# strategy=` header comment marks the round-tagged record
    // layout (one extra column before failreason). Comments run from
    // line 2 to the first data line.
    bool hasRound = false;
    for (size_t li = 2; li < lines.size(); ++li) {
        if (lines[li].empty() || lines[li][0] != '#')
            break;
        if (lines[li].starts_with("# strategy="))
            hasRound = true;
    }

    // Index of the last data line: a record that fails its CRC there
    // is a torn tail (truncate); anywhere else it is corruption.
    size_t lastData = lines.size();
    for (size_t i = lines.size(); i-- > 2;) {
        if (!lines[i].empty() && lines[i][0] != '#') {
            lastData = i;
            break;
        }
    }

    // Payloads carry failstage between failcode and alms, and a round
    // column before failreason when strategy-tagged.
    constexpr size_t kNum = 5; // alms..cycles
    constexpr size_t kBind = kNum + 6;
    const size_t ncommas = hasRound ? 13 : 12;
    std::array<std::string_view, 14> f;
    std::vector<int64_t> vals;
    std::string crcText;
    for (size_t li = 2; li < lines.size(); ++li) {
        const std::string_view row = lines[li];
        if (row.empty() || row[0] == '#')
            continue;
        const bool isTail = li == lastData;
        auto damaged = [&] {
            (isTail ? ls.truncated : ls.corrupt)++;
        };

        const size_t comma = row.rfind(',');
        if (comma == std::string_view::npos) {
            damaged();
            continue;
        }
        const std::string_view payload = row.substr(0, comma);
        crcText.clear();
        appendHex(crcText, crc32(payload), 8);
        if (row.substr(comma + 1) != crcText) {
            damaged();
            continue;
        }
        std::string_view rest = payload;
        size_t nf = 0;
        for (; nf < ncommas; ++nf) {
            const size_t c = rest.find(',');
            if (c == std::string_view::npos)
                break;
            f[nf] = rest.substr(0, c);
            rest.remove_prefix(c + 1);
        }
        if (nf != ncommas) {
            damaged();
            continue;
        }
        f[ncommas] = rest;

        size_t idx = 0;
        if (!parseAll(f[0], idx) || !parseBinding(f[kBind], vals)) {
            damaged();
            continue;
        }
        if (idx >= points.size() || points[idx].evaluated) {
            ++ls.stale;
            continue;
        }
        DesignPoint& p = points[idx];
        // Guard against a stale file: the stored binding must match
        // the binding sampled at this index this run.
        if (vals != p.binding.values) {
            ++ls.stale;
            continue;
        }
        std::array<double, 6> num{};
        int32_t round = -1;
        bool ok = true;
        for (size_t k = 0; k < num.size(); ++k)
            ok = ok && parseAll(f[kNum + k], num[k]);
        if (hasRound)
            ok = ok && parseAll(f[kBind + 1], round);
        if (!ok) {
            damaged();
            continue;
        }
        p.valid = f[1] == "1";
        p.failed = f[2] == "1";
        p.failCode = diagCodeFromName(f[3]);
        p.failStage = f[4];
        p.area.alms = num[0];
        p.area.luts = num[1];
        p.area.regs = num[2];
        p.area.dsps = num[3];
        p.area.brams = num[4];
        p.cycles = num[5];
        p.round = round;
        p.failReason = f[kBind + (hasRound ? 2 : 1)];
        p.evaluated = true;
        ++ls.restored;
        if (p.failed) {
            // Re-surface the failure exactly as the live run
            // reported it, so failureSummary() and golden diag
            // renderings cover restored points identically.
            Diag d;
            d.code = p.failCode;
            d.stage = p.failStage.empty() ? "checkpoint"
                                          : p.failStage;
            d.message = p.failReason;
            d.pointIndex = int64_t(idx);
            d.context = renderBinding(g, p.binding);
            sink.report(d);
        }
    }

    if (ls.truncated > 0)
        warn("checkpoint '" + path + "': torn tail, " +
             std::to_string(ls.truncated) +
             " partial record(s) truncated");
    if (ls.corrupt > 0)
        warn("checkpoint '" + path + "': " +
             std::to_string(ls.corrupt) +
             " corrupt record(s) skipped");
    if (ls.stale > 0)
        warn("checkpoint '" + path + "': " +
             std::to_string(ls.stale) +
             " stale record(s) ignored");
    finish();
    return Status();
}

} // namespace dhdl::dse
