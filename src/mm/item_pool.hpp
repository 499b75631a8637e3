#pragma once

// Wait-free item reuse pool (paper Section 4.4).
//
// Each thread owns one pool per queue, and the pool stamps its thread slot
// (the pool's `owner`) into the top byte of every item's version when the
// item is first allocated (klsm/item.hpp).  Storage is type-stable (arena):
// item addresses remain valid for the queue's lifetime, so stale
// references held in blocks anywhere in the system are always safe to
// dereference and are rejected by the version check in item::take.
//
// Reuse policy: an item becomes reusable the moment its version turns
// even (logically deleted), even if blocks still reference it — the
// monotone version counter makes such references harmless.  The pool finds
// reusable items with an amortized-O(1) cyclic sweep over its own items;
// if the bounded sweep finds nothing (queue mostly full of live items) it
// falls back to fresh arena allocation, so allocation never blocks on the
// behaviour of other threads (wait-free).
//
// The reclamation tier (src/mm/reclaim/, opt-in via
// mem_placement::reclaim) adds one step on top of the sweep:
// quiescent_shrink(), called with no operation in flight, returns the
// pages of every full arena chunk whose items are all dead to the OS
// (arena::release_chunk_pages) and drops the chunk's items from the
// sweep array.  A chunk is `active` or `released`; nothing releases
// pages while takers run.  The virtual range stays mapped — type
// stability holds, later stale reads see zero pages (version 0 = even
// = dead, every stale take fails).  When demand returns, a released
// chunk refaults with every item's version restored to the chunk's
// recorded *version floor* (an even value >= every version the chunk
// ever held), preserving the monotone-version ABA defense across the
// zeroing.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "klsm/item.hpp"
#include "mm/alloc_stats.hpp"
#include "mm/arena.hpp"
#include "mm/placement.hpp"
#include "mm/reclaim/config.hpp"
#include "trace/tracer.hpp"

namespace klsm {

template <typename K, typename V>
class item_pool {
public:
    /// Max items inspected by the reuse sweep per allocation.  Small
    /// enough to be O(1), large enough to find a reusable item with high
    /// probability in steady state (where roughly half of all slots are
    /// logically deleted).
    static constexpr std::size_t sweep_budget = 32;

    /// `place` says whether the reclamation tier is on, and with it
    /// how the arena's chunks are allocated (mm/placement.hpp); the
    /// default is plain heap allocation with reclamation off.
    /// `owner` is the thread slot stamped into every item's version.
    explicit item_pool(mm::mem_placement place = {}, std::uint32_t owner = 0)
        : arena_(256, place, &stats_), reclaim_(place.reclaim),
          owner_(owner) {
        assert(owner < max_registered_threads);
    }
    item_pool(const item_pool &) = delete;
    item_pool &operator=(const item_pool &) = delete;

    /// Allocate an item carrying (key, value); returns the reference
    /// (pointer + expected version + cached key) to store in blocks.
    item_ref<K, V> allocate(const K &key, const V &value) {
        item<K, V> *it = find_reusable();
        if (it == nullptr && reclaim_.shrink_enabled())
            it = revive_released_chunk();
        if (it != nullptr) {
            stats_.count_reuse_hit();
        } else {
            stats_.count_fresh();
            it = arena_.allocate();
            it->set_owner(owner_);
            all_.push_back(it);
        }
        const std::uint64_t version = it->publish(key, value);
        return {it, version, key};
    }

    /// Release the pages of every full chunk whose items are all dead,
    /// then drop the released chunks' items from the sweep array.  A
    /// chunk whose release the platform refuses stays active, in the
    /// sweep.  PRECONDITION: no concurrent operations on the owning
    /// queue, so no stale take can write a released page.  Returns the
    /// number of chunks whose pages were released.
    std::size_t quiescent_shrink() {
        if (!reclaim_.shrink_enabled())
            return 0;
        sync_chunk_state();
        std::vector<chunk_span> released;
        for (std::size_t c = 0; c < chunk_state_.size(); ++c) {
            std::uint64_t floor = 0;
            if (chunk_state_[c].st == chunk_rec::active &&
                chunk_fully_reusable(c, floor) && release_chunk(c, floor))
                released.push_back(span_of(c));
        }
        compact_sweep(released);
        return released.size();
    }

    /// The thread slot stamped into every item this pool allocates.
    std::uint32_t owner() const { return owner_; }

    /// Total items currently in circulation (live + sweep-reusable);
    /// released chunks' items are excluded until their chunk is
    /// revived.
    std::size_t capacity() const { return all_.size(); }

    /// Allocation telemetry (owner increments, any thread may
    /// snapshot; see mm/alloc_stats.hpp).
    const mm::alloc_counters &stats() const { return stats_; }
    const mm::reclaim_config &reclaim_config() const { return reclaim_; }

    /// Chunk-lifecycle census (test/diagnostic helper; owner-only).
    struct chunk_census {
        std::size_t active = 0;
        std::size_t released = 0;
    };
    chunk_census census() const {
        chunk_census out;
        for (const chunk_rec &rec : chunk_state_) {
            if (rec.st == chunk_rec::active)
                ++out.active;
            else
                ++out.released;
        }
        return out;
    }

private:
    struct chunk_rec {
        enum state : std::uint8_t { active, released };
        state st = active;
        /// Even version >= every version any item of the chunk held
        /// when it was released; restored on reactivation.
        std::uint64_t version_floor = 0;
    };

    /// [lo, hi) of one chunk's used items.
    struct chunk_span {
        const item<K, V> *lo;
        const item<K, V> *hi;
    };

    item<K, V> *find_reusable() {
        const std::size_t n = all_.size();
        if (n == 0)
            return nullptr;
        std::size_t budget = sweep_budget < n ? sweep_budget : n;
        while (budget-- > 0) {
            if (cursor_ >= n)
                cursor_ = 0;
            item<K, V> *it = all_[cursor_++];
            if (it->reusable())
                return it;
        }
        return nullptr;
    }

    /// Extend the lifecycle vector to cover newly-filled chunks (the
    /// arena's last, still-filling chunk is never tracked: it takes
    /// fresh allocations and is never released).
    void sync_chunk_state() {
        std::size_t full = arena_.chunk_count();
        if (full > 0 && !arena_.chunk_full(full - 1))
            --full;
        while (chunk_state_.size() < full)
            chunk_state_.push_back({});
    }

    /// All items dead?  Also computes the chunk's version floor (max
    /// version; even because all observed versions are even).
    bool chunk_fully_reusable(std::size_t c, std::uint64_t &floor) {
        item<K, V> *base = arena_.chunk_data(c);
        const std::size_t n = arena_.chunk_used(c);
        std::uint64_t max_v = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!base[i].reusable())
                return false;
            const std::uint64_t v = base[i].version();
            if (v > max_v)
                max_v = v;
        }
        floor = max_v;
        return true;
    }

    /// Release chunk `c`'s pages and record its version floor.
    bool release_chunk(std::size_t c, std::uint64_t floor) {
        if (!arena_.release_chunk_pages(c))
            return false; // platform refused; stays active
        chunk_state_[c] = {chunk_rec::released, floor};
        KLSM_TRACE_EVENT(trace::kind::reclaim_release, c,
                         arena_.chunk_bytes(c));
        return true;
    }

    /// Drop the items of the just-released chunks `drop` from the
    /// sweep array (it holds no item of an older released chunk).
    void compact_sweep(const std::vector<chunk_span> &drop) {
        if (drop.empty())
            return;
        all_.erase(std::remove_if(all_.begin(), all_.end(),
                                  [&drop](const item<K, V> *p) {
                                      return in_spans(drop, p);
                                  }),
                   all_.end());
        cursor_ = 0;
    }

    chunk_span span_of(std::size_t c) {
        const item<K, V> *base = arena_.chunk_data(c);
        return {base, base + arena_.chunk_used(c)};
    }

    static bool in_spans(const std::vector<chunk_span> &spans,
                         const item<K, V> *p) {
        for (const chunk_span &s : spans)
            if (p >= s.lo && p < s.hi)
                return true;
        return false;
    }

    /// Bring a released chunk back into service when demand returns
    /// and the sweep found nothing: refault it and restore every
    /// item's version to the chunk's floor.  Returns one of the revived
    /// chunk's items, or nullptr.
    item<K, V> *revive_released_chunk() {
        for (std::size_t c = 0; c < chunk_state_.size(); ++c)
            if (chunk_state_[c].st == chunk_rec::released)
                return reactivate_chunk(c);
        return nullptr;
    }

    item<K, V> *reactivate_chunk(std::size_t c) {
        chunk_rec &rec = chunk_state_[c];
        item<K, V> *base = arena_.chunk_data(c);
        const std::size_t n = arena_.chunk_used(c);
        // Every item of a full chunk was stamped before its first
        // publish, so the floor (a max over their versions) carries the
        // owner byte and revived items keep their owner.
        assert((item<K, V>::owner_of(rec.version_floor) == owner_));
        for (std::size_t i = 0; i < n; ++i) {
            base[i].reset_after_reclaim(rec.version_floor);
            all_.push_back(&base[i]);
        }
        arena_.note_chunk_reactivated(c);
        // Point the sweep at the revived items.
        cursor_ = all_.size() - n;
        rec.st = chunk_rec::active;
        return base;
    }

    mm::alloc_counters stats_; ///< declared before arena_ (ctor order)
    arena<item<K, V>> arena_;
    std::vector<item<K, V> *> all_;
    std::size_t cursor_ = 0;
    mm::reclaim_config reclaim_;
    std::vector<chunk_rec> chunk_state_;
    std::uint32_t owner_;
};

} // namespace klsm
