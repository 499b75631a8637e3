#pragma once

// Per-thread, type-stable block recycling pools (paper Section 4.4):
//
//   "It is guaranteed that no thread will need more than four instances
//    of Block per level at any point in time, which will be allocated on
//    first access."
//
// Each thread owns one pool per queue.  Blocks are never freed while the
// queue lives; they cycle through the states free -> held -> (published ->)
// free.  Whether a published block may be recycled is decided by a caller-
// supplied predicate:
//
//   * DistLSM blocks: the owner knows exactly when a block leaves its
//     block array, so it releases blocks explicitly (state goes free).
//   * Shared-LSM blocks: other threads' consolidations drop blocks from
//     the published array, so the owner cannot observe unpublication.
//     Instead, `acquire` re-checks candidates against the *current*
//     shared BlockArray: once a block is absent from the current array it
//     can never be re-published (a snapshot containing it could only be
//     pushed by a CAS whose expected value is an array that still
//     references it), so absence is a stable reclamation criterion.
//
// Blocks are allocated on demand, one at a time: an acquire creates a
// block only when its capacity bucket holds no free or recyclable one,
// so a level pays only for the blocks it holds at once.  The paper's
// bound of four live blocks per level is not enforced: a fifth
// allocation is strictly better than an unbounded search or a
// corruption if the bound were ever exceeded by a code path we reasoned
// about incorrectly.  Every allocation beyond the fourth block of a
// level is counted as growth so tests can assert the paper's bound
// actually holds.

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "klsm/block.hpp"
#include "mm/alloc_stats.hpp"
#include "mm/placement.hpp"
#include "mm/reclaim/shrink.hpp"
#include "trace/tracer.hpp"

namespace klsm {

template <typename K, typename V>
class block_pool {
public:
    static constexpr std::uint32_t max_levels = 32;
    static constexpr std::size_t blocks_per_level = 4;

    /// `place` governs where every block's entry pages live
    /// (mm/placement.hpp); the default is the historical plain heap
    /// allocation.
    explicit block_pool(mm::mem_placement place = {}) : place_(place) {}
    block_pool(const block_pool &) = delete;
    block_pool &operator=(const block_pool &) = delete;

    /// Acquire a block with capacity 2^capacity_pow, begin its mutation
    /// window at logical level `level` (<= capacity_pow).
    /// `may_recycle(b)` decides whether a block in `published` state has
    /// become reclaimable; pass `always_recyclable` for DistLSM pools.
    template <typename Pred>
    block<K, V> *acquire(std::uint32_t capacity_pow, std::uint32_t level,
                         Pred &&may_recycle) {
        assert(capacity_pow < max_levels);
        auto &bucket = buckets_[capacity_pow];
        block<K, V> *found = nullptr;
        for (auto &b : bucket) {
            switch (b->pool_state()) {
            case block_state::free:
                found = b.get();
                break;
            case block_state::published:
                if (may_recycle(b.get()))
                    found = b.get();
                break;
            case block_state::held:
                break;
            }
            if (found)
                break;
        }
        if (found) {
            stats_.count_reuse_hit();
        } else {
            // Past the fourth block of a level this is the safety
            // valve; see header comment.
            if (bucket.size() >= blocks_per_level)
                stats_.count_growth();
            push_new_block(bucket, capacity_pow);
            found = bucket.back().get();
            stats_.count_fresh();
        }
        if (found->entries_released()) {
            // A shrink released this block's entry pages; they refault
            // (zeroed) as the new mutation window writes them.
            found->set_entries_released(false);
            stats_.count_reactivate(found->entry_storage().bytes());
        }
        found->set_pool_state(block_state::held);
        found->reuse_begin(level);
        return found;
    }

    /// Predicate for pools whose published blocks are tracked explicitly
    /// by the owner (never used in `published` state).
    static bool always_recyclable(block<K, V> *) { return true; }

    /// Owner finished building and did NOT publish the block (or removed
    /// it from its own DistLSM): recycle immediately.
    void release(block<K, V> *b) {
        if ((b->generation() & 1) != 0)
            b->seal();
        b->set_pool_state(block_state::free);
    }

    /// Owner published the block into the shared LSM; it becomes
    /// reclaimable only via the `may_recycle` predicate.
    void mark_published(block<K, V> *b) {
        b->set_pool_state(block_state::published);
    }

    /// Number of allocations beyond the paper's four-per-level bound
    /// (tests assert this stays 0 for DistLSM usage).
    std::size_t overflow_allocations() const {
        return stats_.growth_beyond_bound.load(std::memory_order_relaxed);
    }

    /// Total blocks currently allocated (test/diagnostic helper).
    std::size_t total_blocks() const {
        std::size_t n = 0;
        for (const auto &bucket : buckets_)
            n += bucket.size();
        return n;
    }

    /// Allocation-placement telemetry (owner increments, any thread may
    /// snapshot; see mm/alloc_stats.hpp).
    const mm::alloc_counters &stats() const { return stats_; }
    const mm::mem_placement &placement() const { return place_; }

    /// Return every free block's entry pages to the OS (the block
    /// objects and their mappings stay put — type stability holds, a
    /// later acquire refaults).  PRECONDITION: no concurrent operations
    /// on the owning queue (same contract as for_each_region).  Only
    /// page-managed entry storage of at least a page is eligible.
    /// Returns the number of blocks whose pages were released.
    std::size_t quiescent_shrink() {
        if (!place_.reclaim.shrink_enabled())
            return 0;
        std::size_t released = 0;
        for (auto &bucket : buckets_)
            for (auto &b : bucket) {
                if (b->pool_state() != block_state::free ||
                    b->entries_released())
                    continue;
                const auto &storage = b->entry_storage();
                if (!storage.page_managed() ||
                    storage.bytes() < mm::page_size())
                    continue;
                if (!mm::reclaim::release_pages(
                        const_cast<void *>(storage.region()),
                        storage.bytes()))
                    continue;
                b->set_entries_released(true);
                stats_.count_reclaim(storage.bytes());
                KLSM_TRACE_EVENT(trace::kind::reclaim_release, 0,
                                 storage.bytes());
                ++released;
            }
        return released;
    }

    /// Walk every block's page-managed entry region for the residency
    /// query; `none`-policy blocks are skipped (their entries share
    /// heap pages with unrelated allocations, so per-page attribution
    /// would double count).  Quiescent-only: buckets may grow under a
    /// concurrent acquire.
    template <typename F>
    void for_each_region(F &&f) const {
        for (const auto &bucket : buckets_)
            for (const auto &b : bucket) {
                const auto &storage = b->entry_storage();
                if (storage.page_managed())
                    f(storage.region(), storage.bytes());
            }
    }

private:
    void push_new_block(
        std::vector<std::unique_ptr<block<K, V>>> &bucket,
        std::uint32_t capacity_pow) {
        bucket.push_back(
            std::make_unique<block<K, V>>(capacity_pow, place_));
        const auto &storage = bucket.back()->entry_storage();
        stats_.count_chunk(storage.bytes(), storage.how_placed());
    }

    std::vector<std::unique_ptr<block<K, V>>> buckets_[max_levels];
    mm::mem_placement place_;
    mm::alloc_counters stats_;
};

} // namespace klsm
