#pragma once

// The combined k-LSM relaxed priority queue (paper Section 4.3, Listing 5)
// — the paper's primary contribution.
//
// Composition:
//   * one DistLSM per thread slot, bounded to k items; inserts batch
//     locally and spill whole sorted blocks into the shared k-LSM when
//     the bound is exceeded, cutting the shared structure's sequential
//     update frequency by a factor of roughly k;
//   * one shared k-LSM, whose delete-min draws uniformly from the <= k+1
//     smallest keys;
//   * spying: a thread whose local and shared views are both empty copies
//     item references from a random victim's DistLSM.
//
// Guarantees (Section 5): insert and try_delete_min are lock-free;
// try_delete_min is linearizable under structural rho-relaxation with
// rho = T*k (T = number of participating threads), and local ordering
// semantics hold — a thread never skips keys it inserted itself.  Its own
// DistLSM is always consulted, and every item records the slot that
// inserted it (the owner byte of its version, item.hpp), so the shared
// find_min serves the thread's own smallest key whenever it is no larger
// than the random candidate.
//
// The Lazy template parameter implements Section 4.5's lazy deletion: a
// stateful predicate consulted whenever items are copied between blocks
// (see lazy.hpp); the default never deletes.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "adapt/contention_monitor.hpp"
#include "klsm/dist_lsm.hpp"
#include "klsm/item.hpp"
#include "klsm/lazy.hpp"
#include "klsm/shared_lsm.hpp"
#include "mm/alloc_stats.hpp"
#include "mm/placement.hpp"
#include "trace/tracer.hpp"
#include "util/slot_directory.hpp"
#include "util/thread_id.hpp"

namespace klsm {

template <typename K, typename V, typename Lazy = no_lazy>
class k_lsm {
public:
    using key_type = K;
    using value_type = V;

    /// `k` is the relaxation parameter: try_delete_min may return any of
    /// the rho + 1 smallest keys, rho = T*k.  k == 0 degenerates to the
    /// shared LSM alone (every insert publishes immediately).
    /// `place` governs where every pool's pages live (mm/placement.hpp;
    /// numa_klsm constructs each shard with that shard's node).
    explicit k_lsm(std::size_t k, Lazy lazy = {},
                   mm::mem_placement place = {})
        : k_(k), lazy_(lazy), place_(place), shared_(k, place) {
        for (std::uint32_t slot = 0; slot < max_registered_threads; ++slot)
            dist_[slot] = std::make_unique<dist_lsm_local<K, V>>(place, slot);
    }

    k_lsm(const k_lsm &) = delete;
    k_lsm &operator=(const k_lsm &) = delete;

    std::size_t relaxation() const { return k_; }

    /// Attach (or detach, with nullptr) contention telemetry: publish
    /// CAS outcomes, the shared/local delete-hit mix, and spy events
    /// are reported to the monitor.
    void set_monitor(adapt::contention_monitor *m) {
        monitor_.store(m, std::memory_order_relaxed);
        shared_.set_monitor(m);
    }

    // ---- handle buffering knob (dynamic_buffering concept) --------------
    //
    // Handles read the depth per operation, so retuning a live queue is
    // safe: a handle holding more than the new depth simply flushes on
    // its next insert.  Rank-error bounds after a run with buffering must
    // use max_buffer_depth_seen(), the high-water mark of the per-handle
    // hidden-item budget (the staged inserts plus the one carried pair a
    // buffered handle may hold, hence the +1).

    /// Per-handle insert-buffer depth; 0 = unbuffered (every h.insert
    /// reaches the DistLSM immediately).
    std::size_t buffer_depth() const {
        return ins_depth_.load(std::memory_order_relaxed);
    }

    void set_buffer_depth(std::size_t d) {
        ins_depth_.store(d, std::memory_order_relaxed);
        note_buffer_high_water();
    }

    /// Items a single handle may currently hide from other threads:
    /// the insert buffer plus its carry slot (see note above).
    std::size_t buffer_total() const {
        const std::size_t d = ins_depth_.load(std::memory_order_relaxed);
        return d + (d > 0);
    }

    /// High-water mark of buffer_total() over the queue's lifetime — the
    /// per-thread term rank bounds must be computed against.
    std::size_t max_buffer_depth_seen() const {
        return max_buffer_seen_.load(std::memory_order_relaxed);
    }

    void insert(const K &key, const V &value) {
        const std::uint32_t slot = dir_.register_self();
        dist_[slot]->insert(
            key, value, slot, k_, lazy_,
            [this](block<K, V> *b, std::uint32_t filled) {
                shared_.insert(b, filled, lazy_);
            });
    }

    /// Insert `n` pairs, pre-sorted in DECREASING key order, as one
    /// block (the handle's flush path; see dist_lsm::insert_batch).
    void insert_batch(const std::pair<K, V> *kv, std::size_t n) {
        const std::uint32_t slot = dir_.register_self();
        dist_[slot]->insert_batch(
            kv, n, slot, k_, lazy_,
            [this](block<K, V> *b, std::uint32_t filled) {
                shared_.insert(b, filled, lazy_);
            });
    }

    /// Attempt to delete a minimal key under the relaxed semantics.
    /// Returns false if the queue appears empty (may fail spuriously; the
    /// paper's interface explicitly permits this as long as a key is
    /// eventually returned given enough attempts).
    bool try_delete_min(K &key, V &value) {
        const std::uint32_t slot = dir_.register_self();
        dist_lsm_local<K, V> &mine = *dist_[slot];
        do {
            for (;;) {
                // Listing 5: consult both components, prefer the smaller.
                item_ref<K, V> cand = mine.find_min(lazy_);
                item_ref<K, V> shared_cand = shared_.find_min(slot, lazy_);
                bool from_shared = false;
                if (!shared_cand.empty() &&
                    (cand.empty() || shared_cand.key < cand.key)) {
                    cand = shared_cand;
                    from_shared = true;
                }
                if (cand.empty())
                    break; // both empty: try spying
                // Read the payload before the take; CAS success certifies
                // the payload read (see item.hpp).
                const V v = cand.it->value();
                if (cand.take()) {
                    key = cand.key;
                    value = v;
                    note(from_shared ? adapt::event::delete_hit_shared
                                     : adapt::event::delete_hit_local);
                    return true;
                }
                // Someone else deleted it first; that thread made
                // progress, so retrying keeps us lock-free.
            }
        } while (spy(slot));
        return false;
    }

    /// Best-effort find-min (Section 4's try_find_min extension): returns
    /// a key/value that was among the relaxed minima at some recent
    /// point; false if the queue appears empty.
    bool try_find_min(K &key, V &value) {
        const std::uint32_t slot = dir_.register_self();
        item_ref<K, V> cand = dist_[slot]->find_min(lazy_);
        item_ref<K, V> shared_cand = shared_.find_min(slot, lazy_);
        if (!shared_cand.empty() &&
            (cand.empty() || shared_cand.key < cand.key))
            cand = shared_cand;
        if (cand.empty())
            return false;
        key = cand.key;
        value = cand.it->value();
        return cand.it->is_alive(cand.version);
    }

    /// Per-thread operation handle (buffered k-LSM).  Owned by exactly
    /// one thread; not thread-safe.
    ///
    ///   * insert: staged locally up to buffer_depth() pairs, then the
    ///     whole run is sorted descending and enters the owner's DistLSM
    ///     as ONE pre-sorted block via insert_batch — one merge chain
    ///     (and at most one shared-LSM spill) per batch instead of per
    ///     insert.
    ///   * try_delete_min: with nothing staged and nothing carried, a
    ///     direct k_lsm::try_delete_min.  Otherwise local ordering
    ///     semantics decide: the handle pops one item and serves the
    ///     smaller of it and its smallest staged insert.  A popped item
    ///     that lost is carried (at most one) and competes again on the
    ///     next delete.
    ///   * flush(): staged inserts become visible, a carried pair is
    ///     reinserted.  Destruction flushes.
    ///
    /// Each handle hides at most buffer_total() items, so T threads stay
    /// within rho = (T+1)*k + T*buffer_total (quality.hpp's extended
    /// accounting).
    class handle {
    public:
        using key_type = K;
        using value_type = V;

        static constexpr std::size_t npos =
            static_cast<std::size_t>(-1);

        explicit handle(k_lsm &q) : q_(&q) {}

        handle(handle &&other) noexcept
            : q_(other.q_), buf_(std::move(other.buf_)),
              carry_(std::move(other.carry_)) {
            other.q_ = nullptr;
        }
        handle(const handle &) = delete;
        handle &operator=(const handle &) = delete;
        handle &operator=(handle &&) = delete;

        ~handle() {
            if (q_ != nullptr)
                flush();
        }

        void insert(const K &key, const V &value) {
            const std::size_t depth =
                q_->ins_depth_.load(std::memory_order_relaxed);
            if (depth == 0) {
                q_->insert(key, value);
                return;
            }
            buf_.emplace_back(key, value);
            if (buf_.size() >= depth)
                flush_inserts();
        }

        bool try_delete_min(K &key, V &value) {
            if (!carry_) {
                if (buf_.empty())
                    return q_->try_delete_min(key, value);
                K k{};
                V v{};
                if (!q_->try_delete_min(k, v)) {
                    // The queue looked empty; the staged inserts are all
                    // that is left to serve.
                    serve_buf(buf_min_index(), key, value);
                    return true;
                }
                carry_.emplace(k, v);
            }
            // A smaller staged insert goes first (local ordering); the
            // carried pair then waits for the next delete.
            const std::size_t m = buf_min_index();
            if (m != npos && buf_[m].first < carry_->first) {
                serve_buf(m, key, value);
                return true;
            }
            key = carry_->first;
            value = carry_->second;
            carry_.reset();
            return true;
        }

        /// Publish every buffered effect.  Cheap no-op when empty.
        void flush() {
            flush_inserts();
            if (carry_) {
                q_->insert(carry_->first, carry_->second);
                carry_.reset();
            }
        }

        // White-box observability for tests.
        std::size_t inserts_buffered() const { return buf_.size(); }
        bool carrying() const { return carry_.has_value(); }

    private:
        std::size_t buf_min_index() const {
            std::size_t best = npos;
            for (std::size_t i = 0; i < buf_.size(); ++i)
                if (best == npos || buf_[i].first < buf_[best].first)
                    best = i;
            return best;
        }

        void serve_buf(std::size_t i, K &key, V &value) {
            key = buf_[i].first;
            value = buf_[i].second;
            buf_[i] = buf_.back();
            buf_.pop_back();
        }

        void flush_inserts() {
            if (buf_.empty())
                return;
            std::sort(buf_.begin(), buf_.end(),
                      [](const std::pair<K, V> &a,
                         const std::pair<K, V> &b) {
                          return b.first < a.first; // decreasing keys
                      });
            q_->insert_batch(buf_.data(), buf_.size());
            buf_.clear();
        }

        k_lsm *q_;
        std::vector<std::pair<K, V>> buf_; // staged inserts, unordered
        std::optional<std::pair<K, V>> carry_; // popped, not yet served
    };

    handle get_handle() { return handle(*this); }

    /// Approximate size; the paper's size() is allowed to be off by up to
    /// rho, and this estimate additionally counts not-yet-compacted
    /// logically deleted entries.
    std::size_t size_hint() const {
        std::size_t total = shared_.item_count_estimate();
        dir_.for_each([&](std::uint32_t slot) {
            total += dist_[slot]->item_count_estimate();
        });
        return total;
    }

    /// Expose components for white-box tests and diagnostics.
    shared_lsm<K, V> &shared_component() { return shared_; }
    dist_lsm_local<K, V> &dist_component(std::uint32_t slot) {
        return *dist_[slot];
    }

    /// The placement every pool of this queue was constructed with.
    const mm::mem_placement &placement() const { return place_; }

    /// Aggregate allocation-placement telemetry over every pool (item
    /// pools, DistLSM block pools, shared-LSM block pools).  Counter
    /// reads are safe any time; `query_residency` additionally walks
    /// the backing regions through move_pages(2), which requires
    /// quiescence (call after workers have joined).
    mm::memory_stats memory_stats(bool query_residency = false) const {
        mm::memory_stats out;
        const bool query =
            query_residency && mm::residency_query_supported();
        for (const auto &d : dist_)
            d->collect_memory(out, query);
        shared_.collect_memory(out, query);
        out.resident_queried = query;
        return out;
    }

    /// Shrink every pool's cold storage right now (mm/reclaim/); no-op
    /// unless the queue was built with a shrink-enabled placement.
    /// PRECONDITION: no concurrent operations (workers joined) — the
    /// same quiescence memory_stats' residency walk requires.  Returns
    /// the number of page-release events.
    std::size_t quiescent_shrink() {
        std::size_t released = 0;
        for (const auto &d : dist_)
            released += d->quiescent_shrink();
        released += shared_.quiescent_shrink();
        KLSM_TRACE_EVENT(trace::kind::reclaim_shrink, 0, released);
        return released;
    }

private:
    bool spy(std::uint32_t slot) {
        // Bound the copy to k items (Section 4.2's space bound); always
        // allow at least one so spying makes progress for k == 0.
        const std::size_t cap = k_ > 0 ? k_ : 1;
        // Random victim first (the paper's scheme), then one sweep over
        // all registered slots so a false return means every DistLSM was
        // observed empty — spurious failures stay possible but rare.
        const std::uint32_t victim = dir_.random_victim(slot);
        if (victim < max_registered_threads && victim != slot &&
            dist_[slot]->spy_from(*dist_[victim], cap)) {
            note(adapt::event::spy);
            return true;
        }
        const std::uint32_t n = dir_.size();
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t s = dir_.at(i);
            if (s != slot && s != victim &&
                dist_[slot]->spy_from(*dist_[s], cap)) {
                note(adapt::event::spy);
                return true;
            }
        }
        return false;
    }

    /// One predictable branch when no monitor is attached.
    void note(adapt::event e) {
        adapt::contention_monitor *m =
            monitor_.load(std::memory_order_relaxed);
        if (m)
            m->count(e);
    }

    void note_buffer_high_water() {
        const std::size_t total = buffer_total();
        std::size_t cur = max_buffer_seen_.load(std::memory_order_relaxed);
        while (total > cur && !max_buffer_seen_.compare_exchange_weak(
                                  cur, total, std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
        }
    }

    const std::size_t k_;
    /// Handle insert-buffer depth and the high-water mark of
    /// buffer_total() (see the knob accessors).
    std::atomic<std::size_t> ins_depth_{0};
    std::atomic<std::size_t> max_buffer_seen_{0};
    /// Contention telemetry sink; null when no monitor is attached.
    std::atomic<adapt::contention_monitor *> monitor_{nullptr};
    Lazy lazy_;
    mm::mem_placement place_;
    shared_lsm<K, V> shared_;
    std::unique_ptr<dist_lsm_local<K, V>> dist_[max_registered_threads];
    slot_directory dir_;
};

/// The standalone distributed LSM priority queue ("DLSM" in Figure 3):
/// the k-LSM without the shared component and without relaxation bounds —
/// purely local ordering semantics, maximal scalability.
template <typename K, typename V>
class dist_pq {
public:
    using key_type = K;
    using value_type = V;

    explicit dist_pq(mm::mem_placement place = {}) : place_(place) {
        for (std::uint32_t slot = 0; slot < max_registered_threads; ++slot)
            dist_[slot] = std::make_unique<dist_lsm_local<K, V>>(place, slot);
    }

    dist_pq(const dist_pq &) = delete;
    dist_pq &operator=(const dist_pq &) = delete;

    void insert(const K &key, const V &value) {
        const std::uint32_t slot = dir_.register_self();
        dist_[slot]->insert(key, value, slot,
                            dist_lsm_local<K, V>::unbounded, no_lazy{},
                            [](block<K, V> *, std::uint32_t) {});
    }

    bool try_delete_min(K &key, V &value) {
        const std::uint32_t slot = dir_.register_self();
        dist_lsm_local<K, V> &mine = *dist_[slot];
        do {
            for (;;) {
                item_ref<K, V> cand = mine.find_min();
                if (cand.empty())
                    break;
                const V v = cand.it->value();
                if (cand.take()) {
                    key = cand.key;
                    value = v;
                    return true;
                }
            }
        } while (spy(slot));
        return false;
    }

    std::size_t size_hint() const {
        std::size_t total = 0;
        dir_.for_each([&](std::uint32_t slot) {
            total += dist_[slot]->item_count_estimate();
        });
        return total;
    }

    const mm::mem_placement &placement() const { return place_; }

    /// Aggregate pool telemetry; see k_lsm::memory_stats.
    mm::memory_stats memory_stats(bool query_residency = false) const {
        mm::memory_stats out;
        const bool query =
            query_residency && mm::residency_query_supported();
        for (const auto &d : dist_)
            d->collect_memory(out, query);
        out.resident_queried = query;
        return out;
    }

    /// See k_lsm::quiescent_shrink (same contract).
    std::size_t quiescent_shrink() {
        std::size_t released = 0;
        for (const auto &d : dist_)
            released += d->quiescent_shrink();
        return released;
    }

private:
    bool spy(std::uint32_t slot) {
        const std::uint32_t victim = dir_.random_victim(slot);
        if (victim < max_registered_threads && victim != slot &&
            dist_[slot]->spy_from(*dist_[victim],
                                  dist_lsm_local<K, V>::unbounded))
            return true;
        const std::uint32_t n = dir_.size();
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t s = dir_.at(i);
            if (s != slot && s != victim &&
                dist_[slot]->spy_from(*dist_[s],
                                      dist_lsm_local<K, V>::unbounded))
                return true;
        }
        return false;
    }

    mm::mem_placement place_;
    std::unique_ptr<dist_lsm_local<K, V>> dist_[max_registered_threads];
    slot_directory dir_;
};

} // namespace klsm
