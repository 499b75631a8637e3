#pragma once

// The shared k-LSM's BlockArray (paper Listing 2, Section 4.4).
//
// A BlockArray is the unit of copy-on-write publication: the shared k-LSM
// is a single atomic (version-stamped) pointer to the current BlockArray;
// every structural update builds a new array privately and swings the
// pointer with CAS.
//
// Differences from the paper's pseudocode, both motivated by the manual
// memory management of Section 4.4:
//
//   * Each slot stores, next to the block pointer, the array's own view
//     of the block's `filled` count and logical `level`.  The paper
//     instead mutates Block::filled in place and accepts benign races;
//     with *recycled* blocks such in-place writes by stale readers could
//     truncate a block's next life, so we move the mutable view into the
//     (private, then immutable-once-published) array and the race
//     disappears entirely.  Published blocks' entries are immutable.
//
//   * The array carries a 64-bit seqlock-style version: odd while its
//     owner mutates/recycles it, even when stable.  The low 10 bits are
//     the stamp embedded in the shared pointer (the paper's 2048-byte
//     alignment trick — note the alignas below), and readers validate
//     their racy copies against the full version.
//
// BlockArray instances are never freed while the queue lives; each thread
// owns exactly two (paper: "Two instances of BlockArray per thread are
// sufficient") plus a safety valve, and recycles them under the version
// protocol above.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "klsm/block.hpp"

namespace klsm {

template <typename K, typename V>
struct alignas(2048) block_array {
    /// Slot levels need not decrease strictly: the shared LSM leaves big
    /// level violations in place until it settles them, and keeps the
    /// count below this bound by merging big violations too when close
    /// to it (shared_lsm.hpp).
    static constexpr std::uint32_t max_blocks = 32;

    struct slot {
        std::atomic<block<K, V> *> blk{nullptr};
        std::atomic<std::uint32_t> filled{0};
        std::atomic<std::uint32_t> level{0};
        /// Start of the candidate range [pivot, filled): entries at these
        /// positions are among the k+1 smallest keys of the whole array.
        std::atomic<std::uint32_t> pivot{0};
    };

    std::atomic<std::uint64_t> version{0}; ///< seqlock; odd = mutating
    std::atomic<std::uint32_t> size{0};
    slot slots[max_blocks];

    // ---- owner-side mutation window --------------------------------------

    void begin_mutate() {
        const std::uint64_t v = version.load(std::memory_order_relaxed);
        assert((v & 1) == 0 && "begin_mutate on an already-mutating array");
        version.store(v + 1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_release);
    }

    /// Ends the mutation window; returns the new (even) full version,
    /// whose low bits become the pointer stamp on publication.
    std::uint64_t seal() {
        std::atomic_thread_fence(std::memory_order_release);
        const std::uint64_t v = version.load(std::memory_order_relaxed);
        assert((v & 1) == 1 && "seal without begin_mutate");
        version.store(v + 1, std::memory_order_release);
        return v + 1;
    }

    bool mutating() const {
        return (version.load(std::memory_order_relaxed) & 1) != 0;
    }

    // ---- racy snapshot copy (reader side) ---------------------------------

    /// Copy `src`'s contents into this (mutating) array.  The caller read
    /// `expected_version` (even) from `src` beforehand; returns false if
    /// `src` was recycled during the copy, in which case the contents of
    /// this array are garbage and must not be used.
    bool copy_from(const block_array &src, std::uint64_t expected_version) {
        std::uint32_t n = src.size.load(std::memory_order_relaxed);
        if (n > max_blocks)
            return false; // torn read from a recycled array
        size.store(n, std::memory_order_relaxed);
        for (std::uint32_t i = 0; i < n; ++i) {
            slots[i].blk.store(
                src.slots[i].blk.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            slots[i].filled.store(
                src.slots[i].filled.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            slots[i].level.store(
                src.slots[i].level.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
            slots[i].pivot.store(
                src.slots[i].pivot.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        return src.version.load(std::memory_order_relaxed) ==
               expected_version;
    }

    // ---- owner-side helpers (array must be in its mutation window) -------

    std::uint32_t count() const {
        return size.load(std::memory_order_relaxed);
    }

    void set_slot(std::uint32_t i, block<K, V> *b, std::uint32_t filled,
                  std::uint32_t level) {
        slots[i].blk.store(b, std::memory_order_relaxed);
        slots[i].filled.store(filled, std::memory_order_relaxed);
        slots[i].level.store(level, std::memory_order_relaxed);
        slots[i].pivot.store(filled, std::memory_order_relaxed);
    }

    void copy_slot(std::uint32_t to, std::uint32_t from) {
        set_slot(to, slots[from].blk.load(std::memory_order_relaxed),
                 slots[from].filled.load(std::memory_order_relaxed),
                 slots[from].level.load(std::memory_order_relaxed));
        slots[to].pivot.store(
            slots[from].pivot.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
    }

    /// Remove slot i, shifting the tail left.
    void remove_slot(std::uint32_t i) {
        const std::uint32_t n = count();
        for (std::uint32_t j = i + 1; j < n; ++j)
            copy_slot(j - 1, j);
        size.store(n - 1, std::memory_order_relaxed);
    }

    /// Insert a slot at position i, shifting the tail right.
    void insert_slot(std::uint32_t i, block<K, V> *b, std::uint32_t filled,
                     std::uint32_t level) {
        const std::uint32_t n = count();
        assert(n < max_blocks);
        for (std::uint32_t j = n; j > i; --j)
            copy_slot(j, j - 1);
        size.store(n + 1, std::memory_order_relaxed);
        set_slot(i, b, filled, level);
    }

    // ---- candidate pivots (Listing 2) --------------------------------------

    /// Set every slot's pivot so the ranges [pivot, filled) hold the k+1
    /// smallest entries of the array: a multiway walk down from each
    /// slot's fill.
    void calculate_pivots(std::size_t k) {
        std::uint32_t cur[max_blocks];
        const std::uint32_t n = count();
        for (std::uint32_t i = 0; i < n; ++i)
            cur[i] = slots[i].filled.load(std::memory_order_relaxed);
        walk_pivots(cur, k + 1);
    }

    /// The same walk, continued from the current pivots.  Valid only after
    /// a consolidation that trimmed dead suffixes and merged nothing: the
    /// surviving candidates are then still the smallest entries, so
    /// walking on for the trimmed ones yields the same candidate keys as
    /// calculate_pivots.  At most k+1 candidates survive, since the
    /// pivots were set by a walk of the same k and a trim only removes
    /// candidates.
    void extend_pivots(std::size_t k) {
        std::uint32_t cur[max_blocks];
        std::size_t have = 0;
        const std::uint32_t n = count();
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t f =
                slots[i].filled.load(std::memory_order_relaxed);
            const std::uint32_t p =
                slots[i].pivot.load(std::memory_order_relaxed);
            cur[i] = p < f ? p : f;
            have += f - cur[i];
        }
        assert(have <= k + 1);
        walk_pivots(cur, k + 1 - have);
    }

private:
    /// Move `remaining` candidates into the ranges, smallest next key
    /// first, starting from the per-slot positions `cur`.
    void walk_pivots(std::uint32_t *cur, std::size_t remaining) {
        const std::uint32_t n = count();
        K next_key[max_blocks];
        bool has_next[max_blocks];
        for (std::uint32_t i = 0; i < n; ++i) {
            has_next[i] = cur[i] > 0;
            if (has_next[i])
                next_key[i] = key_at(i, cur[i] - 1);
        }
        while (remaining > 0) {
            std::uint32_t best = max_blocks;
            for (std::uint32_t i = 0; i < n; ++i) {
                if (!has_next[i])
                    continue;
                if (best == max_blocks || next_key[i] < next_key[best])
                    best = i;
            }
            if (best == max_blocks)
                break;
            --cur[best];
            --remaining;
            has_next[best] = cur[best] > 0;
            if (has_next[best])
                next_key[best] = key_at(best, cur[best] - 1);
        }
        for (std::uint32_t i = 0; i < n; ++i)
            slots[i].pivot.store(cur[i], std::memory_order_relaxed);
    }

    K key_at(std::uint32_t slot, std::uint32_t pos) const {
        return slots[slot].blk.load(std::memory_order_relaxed)
            ->load_entry(pos)
            .key;
    }
};

} // namespace klsm
