#include "serve/plan_cache.hh"

#include <algorithm>

#include "core/checksum.hh"
#include "core/printer.hh"

namespace dhdl::serve {

PlanCache::PlanCache(size_t capacity)
    : cap_(std::max<size_t>(1, capacity)) {}

void
PlanCache::touch(Slot& slot, uint64_t key)
{
    lru_.erase(slot.lru);
    lru_.push_front(key);
    slot.lru = lru_.begin();
}

std::shared_ptr<const CachedPlan>
PlanCache::acquire(Graph g, bool* hit)
{
    const std::string ir = emitIR(g);
    const uint64_t key = fnv1a(ir);
    if (hit)
        *hit = false;

    std::unique_lock<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        // Entry exists or is being built by another thread; wait for
        // the builder so every concurrent requester receives the
        // identical plan pointer.
        builtCv_.wait(lock, [&] {
            auto e = map_.find(key);
            return e == map_.end() || e->second.entry != nullptr;
        });
        it = map_.find(key);
        if (it != map_.end() && it->second.entry) {
            if (it->second.entry->ir == ir) {
                touch(it->second, key);
                ++hits_;
                if (hit)
                    *hit = true;
                return it->second.entry;
            }
            // FNV collision: never serve a plan for a different IR.
            // Compile outside the cache and leave the resident entry
            // alone.
            ++collisions_;
            ++misses_;
            lock.unlock();
            auto entry = std::make_shared<CachedPlan>(std::move(g));
            entry->key = key;
            entry->ir = ir;
            entry->plan = dse::Evaluator::tryCompile(entry->graph);
            return entry;
        }
        // The builder vanished (its insert failed); fall through and
        // build ourselves.
    }

    // Miss: reserve the key (null entry = building) so concurrent
    // requesters wait instead of compiling twice, then compile
    // outside the lock.
    ++misses_;
    lru_.push_front(key);
    map_[key] = Slot{nullptr, lru_.begin()};
    lock.unlock();

    // The plan points into the graph, so the graph must reach its
    // final address (inside the shared entry) before compilation.
    auto entry = std::make_shared<CachedPlan>(std::move(g));
    entry->key = key;
    entry->ir = ir;
    entry->plan = dse::Evaluator::tryCompile(entry->graph);

    lock.lock();
    auto slot = map_.find(key);
    if (slot != map_.end())
        slot->second.entry = entry;
    // Evict least-recently-used complete entries over capacity.
    // In-flight builds (null entries) are never evicted.
    while (map_.size() > cap_ && !lru_.empty()) {
        bool evicted = false;
        for (auto r = lru_.rbegin(); r != lru_.rend(); ++r) {
            auto v = map_.find(*r);
            if (v == map_.end() || !v->second.entry ||
                v->second.entry == entry)
                continue;
            lru_.erase(std::next(r).base());
            map_.erase(v);
            ++evictions_;
            evicted = true;
            break;
        }
        if (!evicted)
            break;
    }
    lock.unlock();
    builtCv_.notify_all();
    return entry;
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.collisions = collisions_;
    s.size = map_.size();
    s.capacity = cap_;
    return s;
}

} // namespace dhdl::serve
