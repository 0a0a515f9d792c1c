/**
 * @file
 * Durable exploration checkpoints: the crash-safe, self-validating
 * on-disk format shared by explore(), resume, and shard merge.
 *
 * Format (v2), line-oriented text:
 *
 *   # dhdl-explore-checkpoint v2
 *   # design=<16-hex> space=<16-hex> seed=<u64> total=<n> nparams=<n>
 *   # columns: index,valid,failed,failcode,failstage,alms,luts,
 *   #          regs,dsps,brams,cycles,binding,failreason,crc32
 *   <record>,<8-hex crc32>
 *   ...
 *
 * Guarantees:
 *
 *  - **Atomic writes**: write-temp + flush (fsync) + rename per
 *    checkpoint batch. A kill at any instant leaves either the old
 *    complete file or the new complete file.
 *  - **Self-validating header**: `design` is the FNV-1a hash of the
 *    canonical `.dhdl` serialization, `space` fingerprints the legal
 *    parameter space. Resuming or merging a checkpoint written by a
 *    different design, seed, sample count or space is *refused* with
 *    a structured Diag (CheckpointMismatch) — never a crash, never a
 *    silent wrong merge.
 *  - **Per-record CRC-32**: the last comma-field of every record is
 *    the CRC of everything before it. A torn tail (partial final
 *    record, e.g. from a non-atomic writer or a cut download) is
 *    detected and logically truncated: the valid prefix restores,
 *    the tail is dropped and counted. A CRC failure mid-file marks
 *    the record corrupt; it is skipped and counted, and the point
 *    re-evaluates. Recovery is observable: counts land in
 *    CheckpointLoadStats, warning Diags, and obs counters
 *    (`dse.checkpoint.truncated` / `.corrupt` / `.stale`).
 *  - **Diag fidelity**: records persist the failing pipeline stage,
 *    so a restored failure re-surfaces a diagnostic byte-identical
 *    (in code/stage/message/point) to the live run's.
 *  - **Render once**: a CheckpointWriter renders each record the
 *    first time its point is evaluated and keeps the finished line,
 *    so every later write of the same exploration is one copy of the
 *    file plus the I/O.
 */

#ifndef DHDL_DSE_CHECKPOINT_HH
#define DHDL_DSE_CHECKPOINT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/diag.hh"
#include "dse/evaluator.hh"
#include "dse/space.hh"

namespace dhdl::dse {

/** Identity of one exploration, carried in the checkpoint header. */
struct CheckpointMeta {
    uint64_t designHash = 0; //!< FNV-1a of emitIR(graph).
    uint64_t spaceHash = 0;  //!< FNV-1a of the legal value sets.
    uint64_t seed = 0;
    uint64_t total = 0;      //!< Global sample count.
    uint64_t nparams = 0;
    /**
     * Search strategy that wrote the file. "random" renders the
     * historical v2 layout byte-for-byte; any other name adds a
     * `# strategy=<name>` header line and a per-record round column
     * (still v2: strategy-less readers are the only thing that
     * changed, and loading tolerates either layout). Not part of the
     * identity check — a resumed run may switch strategies and keep
     * its evaluated points.
     */
    std::string strategy = "random";

    bool operator==(const CheckpointMeta&) const = default;
};

/** Fingerprint a run: design-IR hash, space hash, seed, total. */
CheckpointMeta makeCheckpointMeta(const Graph& g,
                                  const ParamSpace& space,
                                  uint64_t seed, size_t total);

/**
 * Renders the checkpoint of one exploration, write after write. The
 * header is rendered on construction; each record is rendered the
 * first time its point shows up as evaluated and its finished line
 * (`payload,crc32\n`) is cached, so a run of N points and W writes
 * renders N records rather than N·W. A cached line is never
 * re-rendered: an evaluated point must not change afterwards, which
 * SearchDriver guarantees (points only ever become evaluated).
 */
class CheckpointWriter
{
  public:
    explicit CheckpointWriter(const CheckpointMeta& meta);

    /**
     * The file for `points`: the header, then the line of every
     * evaluated point in index order. Deterministic: identical points
     * yield identical bytes, which shard-merge byte-identity and the
     * golden suite pin. The reference is valid until the next call.
     */
    const std::string& render(const std::vector<DesignPoint>& points);

    /**
     * Atomically persist render(points): temp file in the same
     * directory, fsync, rename. Returns false on I/O failure (caller
     * reports; exploration continues) and leaves no temp file.
     * Fault-injection points `torn-checkpoint` and `corrupt-record`
     * act on this write's bytes only, never on the cache.
     */
    bool write(const std::string& path,
               const std::vector<DesignPoint>& points);

  private:
    /** Where point i's cached line sits in arena_; len 0 = none. */
    struct Line {
        size_t off = 0;
        size_t len = 0;
    };

    std::string header_;
    bool withRound_ = false;
    std::string arena_;       //!< Every cached line, in render order.
    std::vector<Line> lines_; //!< Indexed by point index.
    std::string content_;     //!< The last assembled file.
};

/** The file a fresh CheckpointWriter renders for `points`. */
std::string renderCheckpoint(const CheckpointMeta& meta,
                             const std::vector<DesignPoint>& points);

/** One write of a fresh CheckpointWriter (see its write()). */
bool writeCheckpointFile(const std::string& path,
                         const CheckpointMeta& meta,
                         const std::vector<DesignPoint>& points);

/** What a load recovered — every recovery is observable. */
struct CheckpointLoadStats {
    size_t restored = 0;  //!< Points restored into the sample set.
    size_t truncated = 0; //!< Torn-tail records dropped.
    size_t corrupt = 0;   //!< Mid-file CRC failures skipped.
    size_t stale = 0;     //!< Index/binding mismatches skipped.
};

/**
 * Restore evaluated points from `path` into `points` (whose bindings
 * must already hold this run's sample set).
 *
 * Returns an error Status — with nothing restored — when the file is
 * missing (CheckpointIo), is not the v2 format (CheckpointMismatch;
 * v1 files are refused as unsupported), or when its header identifies
 * a different exploration (CheckpointMismatch: design, space, seed,
 * sample count or parameter count disagree). The caller chooses the
 * policy:
 * resume downgrades to a warning and starts fresh; shard merge
 * reports the shard missing.
 *
 * Row-level damage never fails the load: torn tails are truncated,
 * corrupt and stale records skipped, each counted in `statsOut` and
 * reported as warning Diags on `sink`. Restored failures re-surface
 * their original error Diag (code, stage, message, binding context).
 */
Status loadCheckpointFile(const std::string& path, const Graph& g,
                          const CheckpointMeta& expect,
                          std::vector<DesignPoint>& points,
                          DiagSink& sink,
                          CheckpointLoadStats* statsOut = nullptr);

} // namespace dhdl::dse

#endif // DHDL_DSE_CHECKPOINT_HH
