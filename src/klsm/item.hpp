#pragma once

// Versioned items — the heart of the k-LSM's ABA-safe manual memory
// management (paper Section 4.4):
//
//   "Since the scheme is not ABA safe, we change the flag variable in Item
//    to an integer, which allows items to be marked as deleted in an
//    ABA-safe manner by incrementing flag with an atomic compare-and-swap.
//    Blocks store the expected flag value together with each pointer to
//    Item."
//
// An item's `version` is one 64-bit word with two fields:
//   * the top byte is the item's OWNER, the thread slot whose item pool
//     allocated it (set once, on the item's first use, and never
//     changed: every later publish and take only moves the low bits);
//   * the low 56 bits are a monotonically increasing counter:
//       odd  = alive (inserted, not yet deleted),
//       even = free (never used, logically deleted, or awaiting reuse).
//
// Logical deletion ("take") is CAS(version, expected_odd, expected_odd+1).
// Reuse republishes payload and bumps the version to the next odd value.
// Both compare and move the full word, and the owner byte is constant per
// item, so the pair (item, word) never repeats exactly as (item, counter)
// never repeats: a stale (pointer, expected_version) pair held by any
// block anywhere in the system can never successfully take a reused
// item, because the CAS simply fails.  (The counter would need 2^55
// reuses of one item to carry into the owner byte.)  Combined with
// type-stable item storage (items are never freed while the queue lives,
// see mm/item_pool.hpp), this makes every dereference safe and every
// stale reference harmless.
//
// Because blocks store the expected version next to each item pointer,
// every block entry carries its item's owner for free: the shared LSM's
// local-ordering check (shared_lsm.hpp) reads it from the entry and never
// dereferences another thread's item.
//
// Payload reads are validated seqlock-style *by the take CAS itself*: a
// reader loads the version (acquire), reads key/value, and then tries the
// CAS.  CAS success proves the version was still `expected` at that point,
// hence no reuse intervened, hence the payload read was the one published
// together with `expected`.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <type_traits>

#include "mm/reclaim/freelist.hpp"
#include "util/thread_id.hpp"

namespace klsm {

template <typename K, typename V>
class item {
    static_assert(std::is_trivially_copyable_v<K> &&
                      std::is_trivially_copyable_v<V>,
                  "items hold their payload in relaxed atomics; keys and "
                  "values must be trivially copyable");

public:
    using key_type = K;
    using value_type = V;

    /// The owner byte sits above a 56-bit counter.
    static constexpr unsigned owner_shift = 56;
    static_assert(max_registered_threads <= 256,
                  "a thread slot must fit the version's owner byte");

    item() = default;
    item(const item &) = delete;
    item &operator=(const item &) = delete;

    /// The owning thread slot recorded in a version word.
    static std::uint32_t owner_of(std::uint64_t version) {
        return static_cast<std::uint32_t>(version >> owner_shift);
    }

    /// Stamp a fresh item (version 0, never published) with its pool's
    /// owner slot.  Pool-only, before the first publish.
    void set_owner(std::uint32_t slot) {
        assert(version_.load(std::memory_order_relaxed) == 0);
        version_.store(std::uint64_t{slot} << owner_shift,
                       std::memory_order_relaxed);
    }

    /// Publish a new payload in a free item and return the new (odd)
    /// version.  May only be called by the pool that owns the item, on an
    /// item whose version is even.
    std::uint64_t publish(const K &key, const V &value) {
        key_.store(key, std::memory_order_relaxed);
        value_.store(value, std::memory_order_relaxed);
        const std::uint64_t v = version_.load(std::memory_order_relaxed) + 1;
        version_.store(v, std::memory_order_release);
        return v;
    }

    /// Logically delete: succeeds iff the version still equals `expected`.
    /// This is the linearization point of a successful delete-min.  The
    /// winning deleter — whichever thread it is — donates the dead item
    /// to the owning pool's freelist when the reclamation tier attached
    /// a sink (mm/reclaim/freelist.hpp); with the tier off the word is
    /// 0 and the only cost is one relaxed load and a branch.
    bool take(std::uint64_t expected) {
        if (!version_.compare_exchange_strong(expected, expected + 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed))
            return false;
        const std::uintptr_t w = reclaim_.load(std::memory_order_acquire);
        if ((w & 1) != 0)
            reinterpret_cast<mm::reclaim::tagged_freelist<item> *>(w & ~std::uintptr_t{1})
                ->push(this);
        return true;
    }

    /// True if the item still carries version `expected` (i.e. the payload
    /// observed under that version is still live).
    bool is_alive(std::uint64_t expected) const {
        return version_.load(std::memory_order_acquire) == expected;
    }

    std::uint64_t version() const {
        return version_.load(std::memory_order_acquire);
    }

    /// An item is reusable by its pool iff its version is even.
    bool reusable() const {
        return (version_.load(std::memory_order_relaxed) & 1) == 0;
    }

    K key() const { return key_.load(std::memory_order_relaxed); }
    V value() const { return value_.load(std::memory_order_relaxed); }

    /// The reclamation word (see mm/reclaim/freelist.hpp for the value
    /// space).  Exposed for the freelist's linkage protocol.
    std::atomic<std::uintptr_t> &reclaim_word() { return reclaim_; }

    /// Attach (or clear, with 0) the owning pool's freelist sink.
    /// Owner-only, and only while the item is not freelist-linked.
    void attach_reclaim_sink(std::uintptr_t sink_word) {
        reclaim_.store(sink_word, std::memory_order_release);
    }

    /// True if the item is currently linked into its freelist — the
    /// sweep must skip such items (the freelist pop will hand them out).
    bool freelist_linked() const {
        return mm::reclaim::tagged_freelist<item>::is_linked_word(
            reclaim_.load(std::memory_order_relaxed));
    }

    /// Owner-only, quiescent-only: reinitialize an item whose chunk was
    /// madvise'd away (storage zeroed).  `even_floor` must be even, carry
    /// the item's owner byte and be >= every version the item ever held,
    /// so global version monotonicity — the ABA defense — survives the
    /// zeroing.
    void reset_after_reclaim(std::uint64_t even_floor,
                             std::uintptr_t sink_word) {
        version_.store(even_floor, std::memory_order_release);
        reclaim_.store(sink_word, std::memory_order_release);
    }

private:
    std::atomic<std::uint64_t> version_{0};
    std::atomic<K> key_{};
    std::atomic<V> value_{};
    std::atomic<std::uintptr_t> reclaim_{0};
};

/// A (pointer, expected-version) pair — what blocks actually store.  The
/// key is cached alongside so ordering decisions never chase the item
/// pointer; a stale cached key can only misdirect a take that the version
/// check then rejects.
template <typename K, typename V>
struct item_ref {
    item<K, V> *it = nullptr;
    std::uint64_t version = 0;
    K key{};

    bool empty() const { return it == nullptr; }
    bool alive() const { return it != nullptr && it->is_alive(version); }
    bool take() const { return it->take(version); }
};

} // namespace klsm
