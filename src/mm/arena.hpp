#pragma once

// Chunked, type-stable arena.
//
// The k-LSM's manual memory management (paper Section 4.4) hinges on
// *type-stable* storage: once an Item or Block has been allocated, its
// address must stay dereferenceable for the lifetime of the queue, because
// stale pointers to it may be read (and then rejected via version checks)
// at any time.  This arena allocates objects in geometrically growing
// chunks that are never freed or moved until the arena is destroyed.
// Its chunk-granular access (chunk_data / chunk_used) is how the item
// pool's reuse sweep walks the objects in place, in allocation order, and
// how the shrink tier finds and releases whole dead chunks.
//
// Each chunk's storage follows the arena's `mem_placement`
// (mm/placement.hpp): a large chunk commits its pages only as its
// objects are handed out, and under shrinking every chunk is whole
// pages the shrink tier may release.  Chunk allocations are
// reported to an optional `alloc_counters` block so the allocation
// telemetry can show where the bytes went.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "mm/alloc_stats.hpp"
#include "mm/placement.hpp"
#include "mm/reclaim/shrink.hpp"

namespace klsm {

template <typename T>
class arena {
public:
    explicit arena(std::size_t first_chunk = 64,
                   mm::mem_placement place = {},
                   mm::alloc_counters *stats = nullptr)
        : next_chunk_size_(first_chunk < 1 ? 1 : first_chunk),
          place_(place), stats_(stats) {}

    arena(const arena &) = delete;
    arena &operator=(const arena &) = delete;

    /// Allocate (default-construct) one more T; never invalidates
    /// previously returned pointers.
    T *allocate() {
        if (chunks_.empty() || used_in_last_ == chunks_.back().size()) {
            chunks_.push_back(
                mm::placed_array<T>::allocate(next_chunk_size_, place_));
            if (stats_ != nullptr)
                stats_->count_chunk(chunks_.back().bytes(),
                                    chunks_.back().page_managed());
            used_in_last_ = 0;
            next_chunk_size_ *= 2;
        }
        return &chunks_.back()[used_in_last_++];
    }

    std::size_t size() const {
        if (chunks_.empty())
            return 0;
        std::size_t total = 0;
        for (std::size_t i = 0; i + 1 < chunks_.size(); ++i)
            total += chunks_[i].size();
        return total + used_in_last_;
    }

    /// Visit every allocated object.  Order is allocation order.
    /// (Test helper, like at().)
    template <typename F>
    void for_each(F &&f) {
        for (std::size_t c = 0; c < chunks_.size(); ++c) {
            const std::size_t n =
                (c + 1 == chunks_.size()) ? used_in_last_
                                          : chunks_[c].size();
            for (std::size_t i = 0; i < n; ++i)
                f(chunks_[c][i]);
        }
    }

    // --- Chunk-granular access: the item pool's sweep and the shrink
    // tier (mm/reclaim/) ---
    // Chunks are never removed or reordered, so an index is a stable
    // chunk identity for the pool's lifecycle bookkeeping.

    std::size_t chunk_count() const { return chunks_.size(); }

    T *chunk_data(std::size_t c) { return chunks_[c].get(); }

    /// Objects live in chunk `c` (the last chunk may be part-filled).
    std::size_t chunk_used(std::size_t c) const {
        return c + 1 == chunks_.size() ? used_in_last_
                                       : chunks_[c].size();
    }

    /// True once chunk `c` can take no further fresh allocations.
    bool chunk_full(std::size_t c) const {
        return c + 1 < chunks_.size() ||
               (c + 1 == chunks_.size() &&
                used_in_last_ == chunks_[c].size());
    }

    std::size_t chunk_bytes(std::size_t c) const {
        return chunks_[c].bytes();
    }

    bool chunk_page_managed(std::size_t c) const {
        return chunks_[c].page_managed();
    }

    /// Return chunk `c`'s physical pages to the OS (the VA stays
    /// mapped, preserving type stability: later reads see zero pages,
    /// later writes refault real ones).  Owner-only; the caller must
    /// have taken every object in the chunk out of circulation first.
    /// Counts a shrink event.  Returns false when the chunk is not
    /// page-granular or the platform refused.
    bool release_chunk_pages(std::size_t c) {
        auto &ch = chunks_[c];
        if (!ch.page_managed())
            return false;
        if (!mm::reclaim::release_pages(const_cast<void *>(ch.region()),
                                        ch.bytes()))
            return false;
        if (stats_ != nullptr)
            stats_->count_reclaim(ch.bytes());
        return true;
    }

    /// Telemetry note that a released chunk is back in service.
    void note_chunk_reactivated(std::size_t c) {
        if (stats_ != nullptr)
            stats_->count_reactivate(chunks_[c].bytes());
    }

    /// Random access by allocation index (test helper; O(#chunks)).
    T &at(std::size_t index) {
        for (std::size_t c = 0; c < chunks_.size(); ++c) {
            const std::size_t n =
                (c + 1 == chunks_.size()) ? used_in_last_
                                          : chunks_[c].size();
            if (index < n)
                return chunks_[c][index];
            index -= n;
        }
        throw std::out_of_range("arena::at");
    }

private:
    std::vector<mm::placed_array<T>> chunks_;
    std::size_t used_in_last_ = 0;
    std::size_t next_chunk_size_;
    mm::mem_placement place_;
    mm::alloc_counters *stats_;
};

} // namespace klsm
