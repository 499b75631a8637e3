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
// reusable items with an amortized-O(1) cyclic sweep that walks its
// arena's chunks in place, in allocation order: the cursor is a position
// inside one chunk, and the pool keeps no second index of its items.  If
// the bounded sweep finds nothing (queue mostly full of live items) it
// falls back to fresh arena allocation, so allocation never blocks on the
// behaviour of other threads (wait-free).
//
// The reclamation tier (src/mm/reclaim/, opt-in via
// mem_placement::reclaim) adds one step on top of the sweep:
// quiescent_shrink(), called with no operation in flight, returns the
// pages of every full arena chunk whose items are all dead to the OS
// (arena::release_chunk_pages).  A chunk is `active` or `released`; the
// sweep skips released chunks, and nothing releases pages while takers
// run.  The virtual range stays mapped — type stability holds, later
// stale reads see zero pages (version 0 = even = dead, every stale take
// fails).  When demand returns, a released chunk refaults with every
// item's version restored to the chunk's recorded *version floor* (an
// even value >= every version the chunk ever held), preserving the
// monotone-version ABA defense across the zeroing, and the sweep resumes
// inside it.

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
            ++circulating_;
            if (sweep_pos_ == nullptr) // the pool's first item
                point_sweep_at(0);
        }
        const std::uint64_t version = it->publish(key, value);
        return {it, version, key};
    }

    /// Release the pages of every full chunk whose items are all dead;
    /// the sweep skips released chunks from then on.  A chunk whose
    /// release the platform refuses stays active, in the sweep.
    /// PRECONDITION: no concurrent operations on the owning queue, so
    /// no stale take can write a released page.  Returns the number of
    /// chunks whose pages were released.
    std::size_t quiescent_shrink() {
        if (!reclaim_.shrink_enabled())
            return 0;
        sync_chunk_state();
        std::size_t released = 0;
        for (std::size_t c = 0; c < chunk_state_.size(); ++c) {
            std::uint64_t floor = 0;
            if (chunk_state_[c].st == chunk_rec::active &&
                chunk_fully_reusable(c, floor) && release_chunk(c, floor))
                ++released;
        }
        // A cursor left inside a released chunk moves on at its next
        // probe (advance_sweep).
        if (released_chunk(sweep_chunk_))
            sweep_end_ = sweep_pos_;
        return released;
    }

    /// The thread slot stamped into every item this pool allocates.
    std::uint32_t owner() const { return owner_; }

    /// Total items currently in circulation (live + sweep-reusable);
    /// released chunks' items are excluded until their chunk is
    /// revived.
    std::size_t capacity() const { return circulating_; }

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

    /// Probe up to min(sweep_budget, capacity()) items from the cursor
    /// on, in allocation order, wrapping past the last item.
    item<K, V> *find_reusable() {
        const std::size_t n = circulating_;
        if (n == 0)
            return nullptr;
        std::size_t budget = sweep_budget < n ? sweep_budget : n;
        // The probe loop keeps the cursor in locals: one store per call,
        // not one per probe.
        item<K, V> *pos = sweep_pos_;
        item<K, V> *end = sweep_end_;
        while (budget-- > 0) {
            if (pos == end) {
                sweep_pos_ = pos;
                advance_sweep();
                pos = sweep_pos_;
                end = sweep_end_;
            }
            item<K, V> *it = pos++;
            if (it->reusable()) {
                sweep_pos_ = pos;
                return it;
            }
        }
        sweep_pos_ = pos;
        return nullptr;
    }

    /// The cursor has reached the end its chunk had when last looked
    /// at.  A part-filled last chunk may have grown since: then probe
    /// on into it.  Otherwise move to the next active chunk, wrapping
    /// to chunk 0 past the last one.  Needs an active chunk
    /// (capacity() > 0).
    void advance_sweep() {
        std::size_t c = sweep_chunk_;
        if (!released_chunk(c)) {
            item<K, V> *end = arena_.chunk_data(c) + arena_.chunk_used(c);
            if (sweep_pos_ != end) {
                sweep_end_ = end;
                return;
            }
        }
        do
            c = c + 1 == arena_.chunk_count() ? 0 : c + 1;
        while (released_chunk(c));
        point_sweep_at(c);
    }

    void point_sweep_at(std::size_t c) {
        sweep_chunk_ = c;
        sweep_pos_ = arena_.chunk_data(c);
        sweep_end_ = sweep_pos_ + arena_.chunk_used(c);
    }

    /// The arena's last, still-filling chunk is never tracked, so
    /// never released.
    bool released_chunk(std::size_t c) const {
        return c < chunk_state_.size() &&
               chunk_state_[c].st == chunk_rec::released;
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
        circulating_ -= arena_.chunk_used(c);
        KLSM_TRACE_EVENT(trace::kind::reclaim_release, c,
                         arena_.chunk_bytes(c));
        return true;
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
        for (std::size_t i = 0; i < n; ++i)
            base[i].reset_after_reclaim(rec.version_floor);
        arena_.note_chunk_reactivated(c);
        circulating_ += n;
        rec.st = chunk_rec::active;
        // Resume the sweep inside the revived chunk.
        point_sweep_at(c);
        return base;
    }

    mm::alloc_counters stats_; ///< declared before arena_ (ctor order)
    arena<item<K, V>> arena_;
    /// Items in circulation: the used items of every active chunk.
    std::size_t circulating_ = 0;
    /// Sweep cursor: the next item to probe, in chunk sweep_chunk_
    /// (null until the first item exists); sweep_end_ is that chunk's
    /// used end as last looked at.
    std::size_t sweep_chunk_ = 0;
    item<K, V> *sweep_pos_ = nullptr;
    item<K, V> *sweep_end_ = nullptr;
    mm::reclaim_config reclaim_;
    std::vector<chunk_rec> chunk_state_;
    std::uint32_t owner_;
};

} // namespace klsm
