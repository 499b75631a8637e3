#pragma once

// Distributed LSM priority queue component (paper Section 4.2, Listing 4).
//
// One `dist_lsm_local` per thread slot.  Only the owning thread mutates
// its instance ("owner" operations); other threads read it exclusively
// through `spy_from`, which is non-destructive: it *copies* item
// references out of a victim's blocks, validating the blocks' generation
// counters afterwards, and never removes anything from the victim.  This
// preserves the victim's local ordering semantics.
//
// Synchronization discipline:
//   * blocks_[] and size_ are atomics only so spies can read them racily;
//     every owner mutation keeps the structure permanently memory-safe
//     (type-stable blocks, null checks, level bounds), and spies discard
//     logically torn copies via block generation validation.
//   * During an insert's merge chain, all pre-existing blocks stay
//     published until the merged block is written (Listing 4: "Old blocks
//     stay available throughout the loop"), so every alive item is
//     continuously reachable — the insert linearizes at the final slot
//     store (Lemma 1).
//   * The combined k-LSM bounds each DistLSM to at most `spill_bound`
//     items; when an insert would exceed the bound, the entire contents
//     are merged into a single block and handed to the spill callback
//     (which publishes it in the shared k-LSM) before the local blocks
//     are retired, so reachability is again continuous.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>

#include "klsm/block.hpp"
#include "klsm/block_pool.hpp"
#include "klsm/item.hpp"
#include "klsm/lazy.hpp"
#include "mm/alloc_stats.hpp"
#include "mm/item_pool.hpp"
#include "mm/placement.hpp"
#include "trace/tracer.hpp"

namespace klsm {

template <typename K, typename V>
class dist_lsm_local {
public:
    static constexpr std::uint32_t max_levels = block_pool<K, V>::max_levels;
    static constexpr std::size_t unbounded =
        std::numeric_limits<std::size_t>::max();

    /// `place` carries the reclamation settings of this LSM's item and
    /// block pools (mm/placement.hpp).
    /// `owner` is the thread slot this LSM belongs to; its item pool
    /// stamps it into every item (klsm/item.hpp).
    explicit dist_lsm_local(mm::mem_placement place = {},
                            std::uint32_t owner = 0)
        : pool_(place), items_(place, owner) {}
    dist_lsm_local(const dist_lsm_local &) = delete;
    dist_lsm_local &operator=(const dist_lsm_local &) = delete;

    /// Owner: insert a key.  If the total number of items would exceed
    /// `spill_bound`, everything is merged into one block and passed to
    /// `spill(block*, filled)` instead of staying local.  `tid` must be
    /// this LSM's owner slot.
    template <typename Lazy, typename Spill>
    void insert(const K &key, const V &value,
                [[maybe_unused]] std::uint32_t tid, std::size_t spill_bound,
                const Lazy &lazy, Spill &&spill) {
        assert(tid == items_.owner());
        item_ref<K, V> ref = items_.allocate(key, value);

        block<K, V> *b = pool_.acquire(0, 0, block_pool<K, V>::always_recyclable);
        b->append(ref, lazy);
        publish_merge(b, spill_bound, lazy, std::forward<Spill>(spill));
    }

    /// Owner: insert `n` key/value pairs, pre-sorted in DECREASING key
    /// order, as ONE level-ceil(log2 n) block — the buffered handle's
    /// flush path.  The run enters the same merge chain a single insert
    /// would, but only once per batch, so the amortized per-item cost of
    /// the chain (and of any spill into the shared LSM) drops by a factor
    /// of n.  Lazy-expired pairs are dropped at append time exactly as a
    /// chain of single inserts would drop them.
    template <typename Lazy, typename Spill>
    void insert_batch(const std::pair<K, V> *kv, std::size_t n,
                      [[maybe_unused]] std::uint32_t tid,
                      std::size_t spill_bound, const Lazy &lazy,
                      Spill &&spill) {
        assert(tid == items_.owner());
        if (n == 0)
            return;
        const std::uint32_t lvl =
            block<K, V>::level_for(static_cast<std::uint32_t>(n));
        assert(lvl < max_levels);
        block<K, V> *b =
            pool_.acquire(lvl, lvl, block_pool<K, V>::always_recyclable);
        for (std::size_t i = 0; i < n; ++i) {
            assert(i == 0 || !(kv[i - 1].first < kv[i].first));
            b->append(items_.allocate(kv[i].first, kv[i].second), lazy);
        }
        if (b->filled() == 0) { // lazy deletion expired the whole batch
            pool_.release(b);
            return;
        }
        b->set_level(block<K, V>::level_for(b->filled()));
        KLSM_TRACE_EVENT(trace::kind::dist_batch_flush, 0, b->filled());
        publish_merge(b, spill_bound, lazy, std::forward<Spill>(spill));
    }

private:
    /// Common insert tail: run the held block `b` through Listing 4's
    /// merge chain, apply the combined k-LSM spill bound, and publish.
    template <typename Lazy, typename Spill>
    void publish_merge(block<K, V> *b, std::size_t spill_bound,
                       const Lazy &lazy, Spill &&spill) {
        KLSM_TRACE_SPAN(publish_span, trace::kind::dist_publish);
        const std::uint32_t old_size = size_.load(std::memory_order_relaxed);
        std::uint32_t i = old_size;
        // Listing 4's merge chain: merge from the back while the previous
        // block's level does not exceed the new block's level.
        while (i > 0) {
            block<K, V> *prev = blocks_[i - 1].load(std::memory_order_relaxed);
            if (prev->level() > b->level())
                break;
            b = merge_replacing(prev, b, lazy);
            --i;
        }
        publish_span.arg(trace::clamp16(old_size - i));

        // Combined k-LSM spill check (Section 4.3): bound the DistLSM to
        // `spill_bound` items in total.
        if (spill_bound != unbounded) {
            std::size_t total = b->filled();
            for (std::uint32_t j = 0; j < i; ++j)
                total += blocks_[j].load(std::memory_order_relaxed)->filled();
            if (total > spill_bound) {
                // Merge the remaining larger blocks in as well, then hand
                // the whole batch to the shared LSM.
                while (i > 0) {
                    block<K, V> *prev =
                        blocks_[i - 1].load(std::memory_order_relaxed);
                    b = merge_replacing(prev, b, lazy);
                    --i;
                }
                if ((b->generation() & 1) != 0)
                    b->seal();
                publish_span.arg(trace::clamp16(old_size));
                KLSM_TRACE_EVENT(trace::kind::dist_spill, b->level(),
                                 b->filled());
                spill(b, b->filled());
                // The spilled block is now reachable via the shared LSM;
                // retire every local block (their items live on in b's
                // copy) and the batch block itself.  The chain's merged_
                // bookkeeping covers a subset of these blocks, so it is
                // cleared rather than released separately.
                size_.store(0, std::memory_order_release);
                for (std::uint32_t j = 0; j < old_size; ++j) {
                    block<K, V> *old =
                        blocks_[j].load(std::memory_order_relaxed);
                    blocks_[j].store(nullptr, std::memory_order_relaxed);
                    if (old != nullptr)
                        pool_.release(old);
                }
                pool_.release(b);
                merged_count_ = 0;
                return;
            }
        }

        if ((b->generation() & 1) != 0)
            b->seal();
        // Publish: slot first, then size (Listing 4's order); spies may
        // transiently see an item twice, which the paper permits.
        blocks_[i].store(b, std::memory_order_release);
        size_.store(i + 1, std::memory_order_release);
        // Retire the blocks the chain replaced (indices i+1 .. old_size-1
        // plus the one previously at index i).
        for (std::uint32_t j = 0; j < merged_count_; ++j)
            pool_.release(merged_[j]);
        merged_count_ = 0;
        for (std::uint32_t j = i + 1; j < old_size; ++j)
            blocks_[j].store(nullptr, std::memory_order_relaxed);
    }

public:
    /// Owner: current minimum alive item (empty ref if none).  Trims
    /// logically deleted suffixes and repairs structural invariants as a
    /// side effect (the paper's consolidate).
    template <typename Lazy = no_lazy>
    item_ref<K, V> find_min(const Lazy &lazy = {}) {
        item_ref<K, V> best{};
        const std::uint32_t n = size_.load(std::memory_order_relaxed);
        bool structural = false;
        std::uint32_t prev_level = std::numeric_limits<std::uint32_t>::max();
        for (std::uint32_t j = 0; j < n; ++j) {
            block<K, V> *b = blocks_[j].load(std::memory_order_relaxed);
            b->trim_owner();
            if (b->filled() == 0) {
                structural = true;
                continue;
            }
            if (b->level() >= prev_level)
                structural = true;
            prev_level = b->level();
            item_ref<K, V> ref = b->peek_min(b->filled());
            if (!ref.empty() && (best.empty() || ref.key < best.key))
                best = ref;
        }
        if (structural)
            consolidate(lazy);
        return best;
    }

    /// Owner: re-establish "non-empty blocks in strictly decreasing level
    /// order" (Listing 4's consolidate).
    template <typename Lazy = no_lazy>
    void consolidate(const Lazy &lazy = {}) {
        const std::uint32_t n = size_.load(std::memory_order_relaxed);
        block<K, V> *live[max_levels];
        std::uint32_t m = 0;
        block<K, V> *drop[max_levels];
        std::uint32_t dropped = 0;
        for (std::uint32_t j = 0; j < n; ++j) {
            block<K, V> *b = blocks_[j].load(std::memory_order_relaxed);
            if (b == nullptr)
                continue;
            b->trim_owner();
            if (b->filled() == 0)
                drop[dropped++] = b;
            else
                live[m++] = b;
        }
        // Merge adjacent blocks violating strictly-decreasing levels.
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::uint32_t j = 1; j < m; ++j) {
                if (live[j - 1]->level() <= live[j]->level()) {
                    block<K, V> *merged =
                        merge_pair(live[j - 1], live[j], lazy);
                    drop[dropped++] = live[j - 1];
                    drop[dropped++] = live[j];
                    live[j - 1] = merged;
                    for (std::uint32_t t = j + 1; t < m; ++t)
                        live[t - 1] = live[t];
                    --m;
                    changed = true;
                    break;
                }
            }
        }
        // Publish the compacted array (merged blocks are already sealed
        // and hold every alive item of the blocks they replace).
        for (std::uint32_t j = 0; j < m; ++j)
            blocks_[j].store(live[j], std::memory_order_release);
        size_.store(m, std::memory_order_release);
        for (std::uint32_t j = m; j < n; ++j)
            blocks_[j].store(nullptr, std::memory_order_relaxed);
        for (std::uint32_t j = 0; j < dropped; ++j)
            pool_.release(drop[j]);
    }

    /// Owner: copy up to `max_items` item references out of `victim`
    /// (Listing 4's spy).  Non-destructive; returns true if anything was
    /// copied.  Precondition: this LSM is empty.
    bool spy_from(dist_lsm_local &victim, std::size_t max_items) {
        // The caller observed this LSM empty via find_min, but a take()
        // by another thread can race between find_min's trim and peek,
        // so blocks of logically dead items (or even a still-alive item)
        // may remain.  Re-establish physical emptiness; if an alive item
        // survives consolidation, refuse to spy — overwriting the block
        // array would leak the blocks and break the level-order
        // invariant.  The caller treats false as "re-read the queue"
        // (spurious failure is allowed by the interface).
        if (size_.load(std::memory_order_relaxed) != 0) {
            consolidate();
            if (size_.load(std::memory_order_relaxed) != 0)
                return false;
        }
        std::uint32_t vsize = victim.size_.load(std::memory_order_acquire);
        if (vsize > max_levels)
            return false; // torn read
        std::uint32_t my_n = 0;
        std::uint32_t last_level = std::numeric_limits<std::uint32_t>::max();
        std::size_t copied = 0;
        for (std::uint32_t j = 0; j < vsize && copied < max_items; ++j) {
            block<K, V> *vb = victim.blocks_[j].load(std::memory_order_acquire);
            if (vb == nullptr)
                continue;
            const std::uint32_t lvl = vb->level(); // racy; validated below
            if (lvl >= max_levels || lvl >= last_level)
                continue; // keep strictly decreasing levels (Listing 4)
            block<K, V> *nb = pool_.acquire(
                lvl, lvl, block_pool<K, V>::always_recyclable);
            if (nb->spy_copy_from(*vb) && nb->filled() > 0) {
                const std::uint32_t new_level =
                    block<K, V>::level_for(nb->filled());
                if (new_level >= last_level) {
                    pool_.release(nb);
                    continue;
                }
                nb->set_level(new_level);
                nb->seal();
                blocks_[my_n].store(nb, std::memory_order_release);
                last_level = new_level;
                copied += nb->filled();
                ++my_n;
            } else {
                pool_.release(nb);
            }
        }
        size_.store(my_n, std::memory_order_release);
        return my_n > 0;
    }

    /// Conservative item count (counts logically deleted items that
    /// have not been trimmed yet).  Callable by ANY thread, not just
    /// the owner: k_lsm::size_hint reads other threads' LSMs through it
    /// mid-run, so the loads are acquire — they synchronize with the
    /// owner's release publication of each block, which happens after
    /// the block's construction and seal.  Torn values (a block being
    /// concurrently reused) only skew the estimate, never safety:
    /// blocks are type-stable and `filled` is atomic.
    std::size_t item_count_estimate() const {
        std::size_t total = 0;
        const std::uint32_t n = size_.load(std::memory_order_acquire);
        for (std::uint32_t j = 0; j < n && j < max_levels; ++j) {
            const block<K, V> *b = blocks_[j].load(std::memory_order_acquire);
            if (b != nullptr)
                total += b->filled();
        }
        return total;
    }

    bool empty_hint() const {
        return size_.load(std::memory_order_relaxed) == 0;
    }

    block_pool<K, V> &pool() { return pool_; }
    item_pool<K, V> &items() { return items_; }

    /// Fold this LSM's pool telemetry into `out` (relaxed counter
    /// reads: safe while workers run).
    void collect_memory(mm::memory_stats &out) const {
        out.items.merge(items_.stats().snapshot());
        out.dist_blocks.merge(pool_.stats().snapshot());
    }

    /// Release every cold chunk/block of this LSM's pools right now
    /// (mm/reclaim/).  PRECONDITION: no concurrent operations on the
    /// queue.  Returns the number of page-release events.
    std::size_t quiescent_shrink() {
        return items_.quiescent_shrink() + pool_.quiescent_shrink();
    }

private:
    /// Merge `prev` (published) with `b` (held, created this operation)
    /// into a freshly acquired block; releases `b`.  `prev` stays
    /// published — the caller retires it after the final slot store.
    template <typename Lazy>
    block<K, V> *merge_replacing(block<K, V> *prev, block<K, V> *b,
                                 const Lazy &lazy) {
        block<K, V> *nb = merge_pair(prev, b, lazy);
        pool_.release(b);
        assert(merged_count_ < max_levels);
        merged_[merged_count_++] = prev;
        return nb;
    }

    /// Merge two blocks into a new held block (consolidate and the
    /// insert chain).
    template <typename Lazy>
    block<K, V> *merge_pair(block<K, V> *a, block<K, V> *c,
                            const Lazy &lazy) {
        const std::uint32_t cap =
            (a->level() > c->level() ? a->level() : c->level()) + 1;
        block<K, V> *nb =
            pool_.acquire(cap, cap, block_pool<K, V>::always_recyclable);
        nb->merge_from(*a, a->filled(), *c, c->filled(), lazy);
        nb->set_level(block<K, V>::level_for(nb->filled()));
        nb->seal();
        return nb;
    }

    std::atomic<block<K, V> *> blocks_[max_levels] = {};
    std::atomic<std::uint32_t> size_{0};

    // Published blocks replaced by the current insert's merge chain; they
    // must stay reachable until the merged block is published, then they
    // are released in one batch.
    block<K, V> *merged_[max_levels];
    std::uint32_t merged_count_ = 0;

    block_pool<K, V> pool_;
    item_pool<K, V> items_;
};

} // namespace klsm
