/**
 * @file
 * Content-addressed DesignPlan cache: the serving layer's
 * amortization of compile-once plans across repeated submissions.
 *
 * Keying: the 64-bit FNV-1a hash (core/checksum) of the canonical
 * `.dhdl` serialization (emitIR) after the standard pass pipeline —
 * the same fingerprint the checkpoint header uses, so "same design"
 * means the same thing everywhere. Two submissions of byte-different
 * text that canonicalize to the same IR share one plan. The full
 * canonical IR is stored alongside the key and compared on every
 * hit, so an FNV collision degrades to an uncached compile, never to
 * serving the wrong plan.
 *
 * Concurrency: acquire() is thread-safe. Concurrent requests for the
 * same key compile once — the first requester builds while the rest
 * wait on the entry — and all receive the identical CachedPlan (and
 * thus the identical DesignPlan pointer), which the 8-thread reuse
 * test asserts. Entries are handed out as shared_ptr, so LRU
 * eviction never invalidates a plan a running job still holds.
 */

#ifndef DHDL_SERVE_PLAN_CACHE_HH
#define DHDL_SERVE_PLAN_CACHE_HH

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/graph.hh"
#include "dse/evaluator.hh"

namespace dhdl::serve {

/** One cached design: canonical identity + compiled plan. */
struct CachedPlan {
    uint64_t key = 0;  //!< fnv1a(ir).
    std::string ir;    //!< Canonical emitIR text (collision guard).
    Graph graph;       //!< The graph the plan was compiled from.
    /** Compile-once plan; null for structurally broken graphs (the
     *  evaluator then falls back per point, as everywhere else). Its
     *  compile is one `dse/plan-compile` span on the acquiring
     *  thread, recorded by Evaluator::tryCompile(); a hit records
     *  none. */
    std::shared_ptr<const DesignPlan> plan;

    explicit CachedPlan(Graph g) : graph(std::move(g)) {}
};

class PlanCache
{
  public:
    explicit PlanCache(size_t capacity = 32);

    /**
     * Look up the canonical IR of `g`, compiling and inserting on a
     * miss. On a hit the passed graph is discarded and the cached
     * entry (graph + plan) is returned; `hit`, when given, reports
     * which path was taken. Never returns null.
     */
    std::shared_ptr<const CachedPlan> acquire(Graph g,
                                              bool* hit = nullptr);

    struct Stats {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t collisions = 0; //!< FNV collisions, served uncached.
        size_t size = 0;
        size_t capacity = 0;
    };
    Stats stats() const;

  private:
    struct Slot {
        std::shared_ptr<CachedPlan> entry; //!< Null while building.
        std::list<uint64_t>::iterator lru;
    };

    void touch(Slot& slot, uint64_t key);

    mutable std::mutex mu_;
    std::condition_variable builtCv_;
    std::unordered_map<uint64_t, Slot> map_;
    std::list<uint64_t> lru_; //!< Front = most recently used.
    size_t cap_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t collisions_ = 0;
};

} // namespace dhdl::serve

#endif // DHDL_SERVE_PLAN_CACHE_HH
