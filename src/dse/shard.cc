#include "dse/shard.hh"

#include <cstdlib>

#include "obs/metrics.hh"

namespace dhdl::dse {

Status
parseShard(const std::string& text, ShardSpec& out)
{
    auto bad = [&](const std::string& why) {
        return Status::error(DiagCode::UserError, "cli",
                             "bad shard spec '" + text + "': " + why);
    };

    const size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size())
        return bad("expected <index>/<count>, e.g. 0/4");

    const std::string is = text.substr(0, slash);
    const std::string ns = text.substr(slash + 1);
    for (const std::string* part : {&is, &ns}) {
        for (char c : *part) {
            if (c < '0' || c > '9')
                return bad("index and count must be decimal integers");
        }
        if (part->size() > 9)
            return bad("value out of range");
    }

    const long i = std::strtol(is.c_str(), nullptr, 10);
    const long n = std::strtol(ns.c_str(), nullptr, 10);
    if (n < 1)
        return bad("count must be >= 1");
    if (i >= n)
        return bad("index is 0-based and must be < count");

    out.index = int(i);
    out.count = int(n);
    return {};
}

std::string
shardCheckpointPath(const std::string& base, int index, int count)
{
    return base + ".shard-" + std::to_string(index) + "-of-" +
           std::to_string(count);
}

ShardMergeResult
mergeShards(const Graph& g, const ExploreConfig& cfg, int shardCount,
            const std::string& checkpointBase)
{
    require(shardCount >= 1, "shard count must be >= 1");
    require(!checkpointBase.empty(),
            "merge needs a checkpoint base path");

    ShardMergeResult out;
    ExploreResult& res = out.result;
    DiagSink sink;

    // Rebuild the global sample set exactly as every shard did —
    // sampleGlobal() is pure in (design, seed, maxPoints) — so each
    // restored record lands in its original global slot.
    ParamSpace space(g);
    auto bindings = sampleGlobal(space, cfg, &sink);
    res.points.resize(bindings.size());
    for (size_t i = 0; i < bindings.size(); ++i)
        res.points[i].binding = std::move(bindings[i]);
    res.stats.total = res.points.size();
    out.meta = makeCheckpointMeta(g, space, cfg.seed, res.points.size());
    out.meta.strategy = strategyName(cfg.strategy);

    out.shardLoads.resize(size_t(shardCount));
    for (int s = 0; s < shardCount; ++s) {
        const std::string path =
            shardCheckpointPath(checkpointBase, s, shardCount);
        Status st = loadCheckpointFile(path, g, out.meta, res.points,
                                       sink, &out.shardLoads[size_t(s)]);
        if (st.ok())
            continue;
        // Graceful degradation: the merge stays partial and says so
        // instead of aborting. The shard's points remain un-evaluated
        // and a later supervisor pass (or manual re-run) fills them.
        out.missingShards.push_back(s);
        sink.report(Diag::warning(
            DiagCode::ShardFailed, "merge",
            "shard " + std::to_string(s) + "/" +
                std::to_string(shardCount) +
                " missing from merge: " + st.diag().message));
        obs::addCounter("dse.merge.missing_shards", 1);
    }

    for (const DesignPoint& p : res.points) {
        res.stats.evaluated += p.evaluated ? 1 : 0;
        res.stats.failed += p.failed ? 1 : 0;
        res.stats.valid += p.valid ? 1 : 0;
    }
    for (const CheckpointLoadStats& ls : out.shardLoads) {
        res.stats.resumed += ls.restored;
        res.stats.ckptTruncated += ls.truncated;
        res.stats.ckptCorrupt += ls.corrupt;
    }
    res.stats.skipped = res.stats.total - res.stats.evaluated;

    // Identical post-processing to explore(): sorted diags, then the
    // Pareto front — the last two pieces of merge ≡ unsharded.
    res.diags = sink.drain();
    sortDiags(res.diags);
    res.pareto = paretoOf(res.points);
    return out;
}

std::string
canonicalDiags(const std::vector<Diag>& diags)
{
    std::string out;
    for (const Diag& d : diags) {
        out += std::to_string(d.pointIndex);
        out += '|';
        out += d.stage;
        out += '|';
        out += diagCodeName(d.code);
        out += '|';
        out += d.message;
        out += '\n';
    }
    return out;
}

} // namespace dhdl::dse
