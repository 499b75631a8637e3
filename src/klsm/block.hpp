#pragma once

// Concurrent LSM block (paper Listing 1).
//
// A block is a sorted run of item references in *decreasing* key order
// (the block minimum sits at index filled-1, so it can be read and lazily
// trimmed in O(1)).  Blocks follow a strict ownership discipline that
// makes the lock-free algorithm tractable:
//
//   * A block is MUTABLE only between `reuse_begin()` and `seal()`, and
//     only by the single thread that acquired it from its pool.
//   * Once published (stored into a DistLSM's block array or referenced
//     by a published shared BlockArray), its entries are immutable.
//     The owner of a DistLSM block may still trim `filled` past logically
//     deleted trailing entries and lower `level` — both are benign for
//     concurrent readers (see dist_lsm.hpp).
//   * Blocks are never freed while the queue lives (type-stable pools);
//     they are recycled via `reuse_begin()`, which bumps a seqlock-style
//     generation counter.  Racy readers (spying threads, stale shared
//     snapshots) validate the generation after reading and discard torn
//     data; every intermediate state they can observe is memory-safe
//     because entry fields are individually atomic and item pointers are
//     themselves type-stable.
//
// Capacity is fixed at construction (2^capacity_pow entries); the logical
// `level` can be lowered below capacity_pow when logical deletions shrink
// a run (the paper's shrink(), without the copy).
//
// Local ordering needs to know which thread inserted each entry.  The
// paper keeps a per-block Bloom filter of contributing threads; here each
// entry's expected version already carries its item's exact owner slot
// (klsm/item.hpp), so append, copy and merge carry ownership along with
// the entry and a block has no ownership state of its own.

#include <atomic>
#include <cassert>
#include <cstdint>

#include "klsm/item.hpp"
#include "klsm/lazy.hpp"
#include "mm/placement.hpp"
#include "util/bits.hpp"

namespace klsm {

/// Owner-side pool bookkeeping; see block_pool.hpp.
enum class block_state : std::uint8_t {
    free,      ///< recyclable by the owning pool
    held,      ///< owner is building into it / holds it in a snapshot
    published, ///< was pushed into the shared LSM; recyclable once it is
               ///< no longer referenced by the *current* shared array
};

template <typename K, typename V>
class block {
public:
    struct entry {
        std::atomic<item<K, V> *> it{nullptr};
        std::atomic<std::uint64_t> version{0};
        std::atomic<K> key{};
    };

    /// `place` governs where the entry array's pages live
    /// (mm/placement.hpp); the default is the historical plain heap
    /// allocation.
    explicit block(std::uint32_t capacity_pow,
                   const mm::mem_placement &place = {})
        : entries_(mm::placed_array<entry>::allocate(
              std::size_t{1} << capacity_pow, place)),
          capacity_pow_(capacity_pow), level_(capacity_pow) {}

    block(const block &) = delete;
    block &operator=(const block &) = delete;

    std::uint32_t capacity_pow() const { return capacity_pow_; }
    std::size_t capacity() const { return std::size_t{1} << capacity_pow_; }

    // ---- generation counter (spy validation) ----------------------------

    /// Begin recycling: bumps the generation to an odd value so racy
    /// readers can detect the mutation window, then resets content.
    void reuse_begin(std::uint32_t level) {
        assert(level <= capacity_pow_);
        const std::uint64_t s = seq_.load(std::memory_order_relaxed);
        assert((s & 1) == 0 && "reuse_begin on a block already mutating");
        seq_.store(s + 1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_release);
        filled_.store(0, std::memory_order_relaxed);
        level_.store(level, std::memory_order_relaxed);
    }

    /// End of the mutation window; content becomes immutable.
    void seal() {
        std::atomic_thread_fence(std::memory_order_release);
        const std::uint64_t s = seq_.load(std::memory_order_relaxed);
        assert((s & 1) == 1 && "seal without reuse_begin");
        seq_.store(s + 1, std::memory_order_release);
    }

    std::uint64_t generation() const {
        return seq_.load(std::memory_order_acquire);
    }

    // ---- building (owner, inside the mutation window) --------------------

    /// Append one reference if its item is still alive (Listing 1's
    /// append: "Only copy items that are not logically deleted") and not
    /// lazily expired (Section 4.5: expired items are taken and dropped
    /// at copy time instead of being copied).
    /// Returns true if appended.  Caller appends in decreasing key order.
    template <typename Lazy = no_lazy>
    bool append(const item_ref<K, V> &ref, const Lazy &lazy = {}) {
        if (ref.it == nullptr || !ref.it->is_alive(ref.version))
            return false;
        if (lazy(ref.key, ref.it)) {
            // Expired: logically delete so every other reference agrees,
            // then drop.  A failed take means someone else deleted it
            // (or dropped it), so the notification fires exactly once
            // per item — applications (e.g. SSSP termination counting)
            // rely on that.
            if (ref.it->take(ref.version)) {
                if constexpr (requires { lazy.dropped(); })
                    lazy.dropped();
            }
            return false;
        }
        const std::uint32_t f = filled_.load(std::memory_order_relaxed);
        assert(f < capacity());
        entries_[f].it.store(ref.it, std::memory_order_relaxed);
        entries_[f].version.store(ref.version, std::memory_order_relaxed);
        entries_[f].key.store(ref.key, std::memory_order_relaxed);
        filled_.store(f + 1, std::memory_order_relaxed);
        return true;
    }

    /// Copy the alive prefix [0, src_filled) of `src` (Listing 1's copy).
    template <typename Lazy = no_lazy>
    void copy_from(const block &src, std::uint32_t src_filled,
                   const Lazy &lazy = {}) {
        const std::uint32_t n =
            src_filled < src.capacity() ? src_filled
                                        : static_cast<std::uint32_t>(src.capacity());
        for (std::uint32_t i = 0; i < n; ++i)
            append(src.load_entry(i), lazy);
    }

    /// Two-way merge of `a[0, a_filled)` and `b[0, b_filled)` (Listing 1's
    /// merge_in), dropping logically deleted items.
    template <typename Lazy = no_lazy>
    void merge_from(const block &a, std::uint32_t a_filled, const block &b,
                    std::uint32_t b_filled, const Lazy &lazy = {}) {
        std::uint32_t i = 0, j = 0;
        const std::uint32_t na =
            a_filled < a.capacity() ? a_filled
                                    : static_cast<std::uint32_t>(a.capacity());
        const std::uint32_t nb =
            b_filled < b.capacity() ? b_filled
                                    : static_cast<std::uint32_t>(b.capacity());
        while (i < na && j < nb) {
            item_ref<K, V> ea = a.load_entry(i);
            item_ref<K, V> eb = b.load_entry(j);
            // Decreasing order: emit the larger key first.
            if (eb.key < ea.key) {
                append(ea, lazy);
                ++i;
            } else {
                append(eb, lazy);
                ++j;
            }
        }
        for (; i < na; ++i)
            append(a.load_entry(i), lazy);
        for (; j < nb; ++j)
            append(b.load_entry(j), lazy);
    }

    /// Racy copy used by DistLSM::spy.  Returns false (content must be
    /// discarded) if the victim block was recycled while copying.
    bool spy_copy_from(const block &victim) {
        const std::uint64_t g1 = victim.generation();
        if (g1 & 1)
            return false; // mid-mutation
        std::uint32_t n = victim.filled();
        if (n > victim.capacity())
            return false; // torn read from a recycled block
        if (n > capacity())
            n = static_cast<std::uint32_t>(capacity());
        for (std::uint32_t i = 0; i < n; ++i)
            append(victim.load_entry(i));
        std::atomic_thread_fence(std::memory_order_acquire);
        return victim.seq_.load(std::memory_order_relaxed) == g1;
    }

    // ---- reading ---------------------------------------------------------

    /// Always inlined: merge_from's loop calls it twice per entry, and
    /// GCC's unit-wide inlining budget (--param inline-unit-growth) is
    /// spent before it reaches this call in a translation unit as large
    /// as ledger/ledger_bench.cpp, which left an out-of-line call per
    /// merged entry.
    [[gnu::always_inline]] item_ref<K, V> load_entry(std::uint32_t i) const {
        item_ref<K, V> ref;
        ref.it = entries_[i].it.load(std::memory_order_relaxed);
        ref.version = entries_[i].version.load(std::memory_order_relaxed);
        ref.key = entries_[i].key.load(std::memory_order_relaxed);
        return ref;
    }

    std::uint32_t filled() const {
        return filled_.load(std::memory_order_relaxed);
    }

    std::uint32_t level() const {
        return level_.load(std::memory_order_relaxed);
    }

    /// Smallest alive entry at or below index `upto - 1`, scanning from
    /// the block minimum upwards past logically deleted entries.  Returns
    /// an empty ref if everything in [0, upto) is dead.  Read-only: safe
    /// on any published block.
    item_ref<K, V> peek_min(std::uint32_t upto) const {
        if (upto > capacity())
            upto = static_cast<std::uint32_t>(capacity());
        for (std::uint32_t i = upto; i-- > 0;) {
            item_ref<K, V> ref = load_entry(i);
            if (ref.it != nullptr && ref.it->is_alive(ref.version))
                return ref;
        }
        return {};
    }

    /// Number of alive entries in [0, upto) (O(upto); used by
    /// consolidation decisions and tests).
    std::uint32_t count_alive(std::uint32_t upto) const {
        if (upto > capacity())
            upto = static_cast<std::uint32_t>(capacity());
        std::uint32_t n = 0;
        for (std::uint32_t i = 0; i < upto; ++i) {
            item_ref<K, V> ref = load_entry(i);
            if (ref.it != nullptr && ref.it->is_alive(ref.version))
                ++n;
        }
        return n;
    }

    // ---- owner-side maintenance (DistLSM blocks only) --------------------

    /// Trim trailing logically deleted entries by decrementing `filled`,
    /// and lower `level` accordingly (Listing 1's shrink, without the
    /// copy: capacity stays, the logical level drops).  Only the owning
    /// thread may call this, and only on blocks it published in its own
    /// DistLSM; concurrent spies tolerate the shrinking `filled`.
    void trim_owner() {
        std::uint32_t f = filled_.load(std::memory_order_relaxed);
        while (f > 0) {
            item_ref<K, V> ref = load_entry(f - 1);
            if (ref.it != nullptr && ref.it->is_alive(ref.version))
                break;
            --f;
        }
        filled_.store(f, std::memory_order_relaxed);
        std::uint32_t lvl = level_.load(std::memory_order_relaxed);
        while (lvl > 0 && f <= (std::uint32_t{1} << (lvl - 1)))
            --lvl;
        level_.store(lvl, std::memory_order_relaxed);
    }

    /// Recompute the logical level from an externally tracked fill count
    /// (owner, pre-publication).
    static std::uint32_t level_for(std::uint32_t filled) {
        if (filled <= 1)
            return 0;
        return log2_ceil(filled);
    }

    void set_level(std::uint32_t level) {
        assert(level <= capacity_pow_);
        level_.store(level, std::memory_order_relaxed);
    }

    // ---- pool bookkeeping (owner thread only) ----------------------------

    block_state pool_state() const { return pool_state_; }
    void set_pool_state(block_state s) { pool_state_ = s; }

    /// Shrink-tier bookkeeping (owner/quiescent only): true while the
    /// entry array's pages have been returned to the OS
    /// (mm/reclaim/shrink.hpp).  The mapping itself stays valid; the
    /// zeroed entries read as (it=nullptr, version=0), which every
    /// reader already treats as an empty slot.  The block object — and
    /// with it the seqlock generation and capacity — lives outside the
    /// entry storage, so spy validation is untouched.
    bool entries_released() const { return entries_released_; }
    void set_entries_released(bool v) { entries_released_ = v; }

    /// The entry array's backing storage, for allocation telemetry and
    /// the shrink tier (byte footprint, page-managed region).
    const mm::placed_array<entry> &entry_storage() const {
        return entries_;
    }

private:
    mm::placed_array<entry> entries_;
    const std::uint32_t capacity_pow_;
    std::atomic<std::uint32_t> level_;
    std::atomic<std::uint32_t> filled_{0};
    std::atomic<std::uint64_t> seq_{0};
    block_state pool_state_ = block_state::free;
    bool entries_released_ = false;
};

} // namespace klsm
