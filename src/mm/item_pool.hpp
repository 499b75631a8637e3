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
// mem_placement::reclaim) layers two mechanisms on top:
//
//   * freelist — every item carries the pool's freelist sink; whichever
//     thread wins an item's take CAS pushes the dead item onto the
//     owner's tagged-pointer freelist (freelist.hpp).  The owner pops
//     from it before sweeping, so hot churn recycles in O(1) without
//     scanning and without the epoch path.
//
//   * shrink — chunk lifecycle bookkeeping (`chunk_rec`): a periodic
//     maintenance step inspects one full arena chunk at a time; a chunk
//     whose items are all dead is *quarantined* (its items leave the
//     sweep array and the freelist, so recycling cannot re-warm it),
//     and after a grace period of further inspections its pages are
//     returned to the OS (arena::release_chunk_pages).  The virtual
//     range stays mapped — type stability holds, stragglers read zero
//     pages (version 0 = even = dead, every stale take fails).  When
//     demand returns, quarantined chunks are revived for free and
//     released chunks refault with every item's version restored to the
//     chunk's recorded *version floor* (an even value >= every version
//     the chunk ever held), preserving the monotone-version ABA
//     defense across the zeroing.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "klsm/item.hpp"
#include "mm/alloc_stats.hpp"
#include "mm/arena.hpp"
#include "mm/placement.hpp"
#include "mm/reclaim/config.hpp"
#include "mm/reclaim/freelist.hpp"
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

    using freelist_type = mm::reclaim::tagged_freelist<item<K, V>>;

    /// `place` governs where the arena's chunk pages live and which
    /// reclamation mechanisms are on (mm/placement.hpp); the default is
    /// the historical plain heap allocation with reclamation off.
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
        item<K, V> *it = nullptr;
        if (reclaim_.freelist_enabled())
            it = pop_recycled();
        if (it == nullptr) {
            it = find_reusable();
            if (it != nullptr)
                stats_.count_reuse_hit();
        }
        if (it == nullptr && reclaim_.shrink_enabled())
            it = revive_cold_chunk();
        if (it == nullptr) {
            stats_.count_fresh();
            it = arena_.allocate();
            it->set_owner(owner_);
            if (reclaim_.freelist_enabled())
                it->attach_reclaim_sink(freelist_.sink_word());
            all_.push_back(it);
        }
        // Publish BEFORE maintenance: the inspection must see this item
        // alive, or it could quarantine (and later zero) the chunk that
        // holds the item we are about to hand out.  This ordering is
        // what makes "inactive chunks are all-dead" an invariant, which
        // reactivate_chunk relies on.
        const std::uint64_t version = it->publish(key, value);
        if (reclaim_.shrink_enabled() &&
            ++allocs_since_maintenance_ >= reclaim_.maintenance_period) {
            allocs_since_maintenance_ = 0;
            maintenance_step();
        }
        return {it, version, key};
    }

    /// Shrink every cold chunk right now, bypassing the grace period.
    /// PRECONDITION: no concurrent operations on the owning queue — the
    /// same quiescence the residency walk already requires.  Without
    /// in-flight deleters there are no ghost freelist pushers, so the
    /// grace period protects nothing.  Returns the number of chunks
    /// whose pages were released.
    std::size_t quiescent_shrink() {
        if (!reclaim_.shrink_enabled())
            return 0;
        sync_chunk_state();
        std::size_t released = 0;
        for (std::size_t c = 0; c < chunk_state_.size(); ++c) {
            chunk_rec &rec = chunk_state_[c];
            if (rec.st == chunk_rec::active) {
                std::uint64_t floor = 0;
                if (!chunk_fully_reusable(c, floor))
                    continue;
                quarantine_chunk(c, floor);
            }
            if (rec.st == chunk_rec::quarantined &&
                try_release_chunk(c))
                ++released;
        }
        return released;
    }

    /// The thread slot stamped into every item this pool allocates.
    std::uint32_t owner() const { return owner_; }

    /// Total items currently in circulation (live + sweep-reusable);
    /// quarantined and released chunks' items are excluded until their
    /// chunk is revived.
    std::size_t capacity() const { return all_.size(); }

    /// Allocation-placement telemetry (owner increments, any thread may
    /// snapshot; see mm/alloc_stats.hpp).
    const mm::alloc_counters &stats() const { return stats_; }
    const mm::mem_placement &placement() const {
        return arena_.placement();
    }
    const mm::reclaim_config &reclaim_config() const { return reclaim_; }
    const freelist_type &freelist() const { return freelist_; }
    /// Mutable freelist access for deleters acting on behalf of this
    /// pool (and for tests emulating ghost pushers).
    freelist_type &freelist() { return freelist_; }

    /// Chunk-lifecycle census (test/diagnostic helper; owner-only).
    struct chunk_census {
        std::size_t active = 0;
        std::size_t quarantined = 0;
        std::size_t released = 0;
    };
    chunk_census census() const {
        chunk_census out;
        for (const chunk_rec &rec : chunk_state_) {
            if (rec.st == chunk_rec::active)
                ++out.active;
            else if (rec.st == chunk_rec::quarantined)
                ++out.quarantined;
            else
                ++out.released;
        }
        return out;
    }

    /// Walk the arena's chunk regions for the residency query
    /// (quiescent-only).
    template <typename F>
    void for_each_region(F &&f) const {
        arena_.for_each_region(f);
    }

private:
    struct chunk_rec {
        enum state : std::uint8_t { active, quarantined, released };
        state st = active;
        std::uint32_t cold_inspections = 0;
        /// Even version >= every version any item of the chunk held at
        /// quarantine time; restored on reactivation after a release.
        std::uint64_t version_floor = 0;
    };

    item<K, V> *pop_recycled() {
        for (std::size_t i = 0; i < sweep_budget; ++i) {
            item<K, V> *it = freelist_.pop();
            if (it == nullptr)
                return nullptr;
            // Ghost pushes can deliver items from chunks that went
            // cold, or items a sweep already republished: discard.
            if (!it->reusable() || item_in_inactive_chunk(it)) {
                stats_.count_freelist_drop();
                continue;
            }
            stats_.count_freelist_hit();
            return it;
        }
        return nullptr;
    }

    item<K, V> *find_reusable() {
        const std::size_t n = all_.size();
        if (n == 0)
            return nullptr;
        std::size_t budget = sweep_budget < n ? sweep_budget : n;
        while (budget-- > 0) {
            if (cursor_ >= n)
                cursor_ = 0;
            item<K, V> *it = all_[cursor_++];
            // Skip items a deleter already parked on the freelist —
            // republishing one here would leave a live item linked.
            if (it->reusable() && !it->freelist_linked())
                return it;
        }
        return nullptr;
    }

    bool item_in_inactive_chunk(const item<K, V> *it) const {
        for (std::size_t c = 0; c < chunk_state_.size(); ++c)
            if (chunk_state_[c].st != chunk_rec::active &&
                arena_.chunk_contains(c, it))
                return true;
        return false;
    }

    /// Extend the lifecycle vector to cover newly-filled chunks (the
    /// arena's last, still-filling chunk is never tracked: it takes
    /// fresh allocations and can't be cold).
    void sync_chunk_state() {
        std::size_t full = arena_.chunk_count();
        if (full > 0 && !arena_.chunk_full(full - 1))
            --full;
        while (chunk_state_.size() < full)
            chunk_state_.push_back({});
    }

    void maintenance_step() {
        sync_chunk_state();
        const std::size_t nc = chunk_state_.size();
        if (nc == 0)
            return;
        if (maintenance_cursor_ >= nc)
            maintenance_cursor_ = 0;
        inspect_chunk(maintenance_cursor_++);
    }

    void inspect_chunk(std::size_t c) {
        chunk_rec &rec = chunk_state_[c];
        switch (rec.st) {
        case chunk_rec::active: {
            std::uint64_t floor = 0;
            if (chunk_fully_reusable(c, floor))
                quarantine_chunk(c, floor);
            break;
        }
        case chunk_rec::quarantined:
            if (++rec.cold_inspections >= reclaim_.grace_inspections)
                try_release_chunk(c);
            break;
        case chunk_rec::released:
            break;
        }
    }

    /// All items dead?  Sound under concurrency: only the owner (us)
    /// can flip a version even->odd (publish), so an all-even
    /// observation cannot be invalidated mid-scan.  Also computes the
    /// chunk's version floor (max version; even because all observed
    /// versions are even).
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

    /// Take chunk `c` out of circulation: filter its items out of the
    /// freelist chain and the sweep array.  Ghost pushers may re-link
    /// individual items afterwards; those ghosts land in released pages
    /// at worst (benign refault) and are discarded by pop validation.
    void quarantine_chunk(std::size_t c, std::uint64_t floor) {
        drain_freelist_excluding(c);
        item<K, V> *base = arena_.chunk_data(c);
        item<K, V> *end = base + arena_.chunk_used(c);
        all_.erase(std::remove_if(all_.begin(), all_.end(),
                                  [base, end](item<K, V> *p) {
                                      return p >= base && p < end;
                                  }),
                   all_.end());
        cursor_ = 0;
        chunk_rec &rec = chunk_state_[c];
        rec.st = chunk_rec::quarantined;
        rec.cold_inspections = 0;
        rec.version_floor = floor;
        KLSM_TRACE_EVENT(trace::kind::reclaim_quarantine, c,
                         arena_.chunk_bytes(c));
    }

    /// Release a quarantined chunk's pages.  Re-filters the freelist
    /// first: ghosts may have linked chunk items since quarantine, and
    /// madvise must never zero a node the live chain routes through.
    bool try_release_chunk(std::size_t c) {
        drain_freelist_excluding(c);
        if (!arena_.release_chunk_pages(c))
            return false; // platform refused; stays quarantined
        chunk_state_[c].st = chunk_rec::released;
        KLSM_TRACE_EVENT(trace::kind::reclaim_release, c,
                         arena_.chunk_bytes(c));
        return true;
    }

    /// Swap-drain the freelist and push back everything that is not in
    /// chunk `c` (and not in any other inactive chunk), fixing up each
    /// kept node's link word.  Owner-only.
    void drain_freelist_excluding(std::size_t c) {
        if (!reclaim_.freelist_enabled())
            return;
        item<K, V> *x = freelist_.detach_all();
        std::vector<item<K, V> *> keep;
        while (x != nullptr) {
            item<K, V> *next = freelist_type::linked_next(x);
            const bool in_chunk = arena_.chunk_contains(c, x);
            // Unlink: back to attached-unlinked state either way; kept
            // nodes are re-pushed below.
            x->attach_reclaim_sink(freelist_.sink_word());
            if (!in_chunk && !item_in_inactive_chunk(x))
                keep.push_back(x);
            x = next;
        }
        for (std::size_t i = keep.size(); i-- > 0;)
            freelist_.push(keep[i]);
    }

    /// Bring a cold chunk back into service when demand returns and the
    /// sweep found nothing.  Quarantined chunks (storage intact) are
    /// preferred over released ones (refault + version-floor restore).
    /// Returns one of the revived chunk's items, or nullptr.
    item<K, V> *revive_cold_chunk() {
        sync_chunk_state();
        std::size_t candidate = chunk_state_.size();
        for (std::size_t c = 0; c < chunk_state_.size(); ++c) {
            if (chunk_state_[c].st == chunk_rec::quarantined) {
                candidate = c;
                break;
            }
            if (chunk_state_[c].st == chunk_rec::released &&
                candidate == chunk_state_.size())
                candidate = c;
        }
        if (candidate == chunk_state_.size())
            return nullptr;
        return reactivate_chunk(candidate);
    }

    item<K, V> *reactivate_chunk(std::size_t c) {
        // Filter any ghost-linked items of this chunk out of the chain
        // before rewriting their words (severing a chain mid-node would
        // strand its tail).
        drain_freelist_excluding(c);
        chunk_rec &rec = chunk_state_[c];
        item<K, V> *base = arena_.chunk_data(c);
        const std::size_t n = arena_.chunk_used(c);
        const std::uintptr_t sink =
            reclaim_.freelist_enabled() ? freelist_.sink_word() : 0;
        const bool was_released = rec.st == chunk_rec::released;
        // Every item of a full chunk was stamped before its first
        // publish, so the floor (a max over their versions) carries the
        // owner byte and revived items keep their owner.
        assert((item<K, V>::owner_of(rec.version_floor) == owner_));
        for (std::size_t i = 0; i < n; ++i) {
            if (was_released)
                base[i].reset_after_reclaim(rec.version_floor, sink);
            else
                base[i].attach_reclaim_sink(sink);
            all_.push_back(&base[i]);
        }
        if (was_released)
            arena_.note_chunk_reactivated(c);
        // Point the sweep at the revived items.
        cursor_ = all_.size() - n;
        rec.st = chunk_rec::active;
        rec.cold_inspections = 0;
        return base;
    }

    mm::alloc_counters stats_; ///< declared before arena_ (ctor order)
    arena<item<K, V>> arena_;
    std::vector<item<K, V> *> all_;
    std::size_t cursor_ = 0;
    mm::reclaim_config reclaim_;
    freelist_type freelist_;
    std::vector<chunk_rec> chunk_state_;
    std::size_t maintenance_cursor_ = 0;
    std::uint32_t allocs_since_maintenance_ = 0;
    std::uint32_t owner_;
};

} // namespace klsm
