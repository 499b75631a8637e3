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
// Skipping the shared draw: Listing 5 serves the local minimum unless the
// shared candidate is strictly smaller, and every shared candidate is an
// entry of the caller's shared snapshot, so it is no smaller than the
// snapshot's smallest block minimum.  When the local minimum is no larger
// than that bound (shared_lsm::has_key_below), the local item wins
// whatever the shared LSM would draw, and the draw is skipped; the choice
// is the one Listing 5 makes.
//
// The Lazy template parameter implements Section 4.5's lazy deletion: a
// stateful predicate consulted whenever items are copied between blocks
// (see lazy.hpp); the default never deletes.

#include <algorithm>
#include <atomic>
#include <cassert>
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
    /// `place` carries every pool's reclamation settings
    /// (mm/placement.hpp).
    explicit k_lsm(std::size_t k, Lazy lazy = {},
                   mm::mem_placement place = {})
        : k_(k), lazy_(lazy), shared_(k, place) {
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

    /// Per-handle insert-buffer depth; 0 = unbuffered (every h.insert
    /// reaches the DistLSM immediately).  Set it once, before any thread
    /// operates on the queue, so one buffer_total() holds for the run.
    void set_buffer_depth(std::size_t d) {
        assert(dir_.size() == 0 && "buffer depth set before any operation");
        ins_depth_ = d;
    }

    /// Items a single handle may hide from other threads: the staged
    /// inserts plus the one carried pair a buffered handle may hold.
    /// Rank bounds charge it per thread (harness/quality.hpp).
    std::size_t buffer_total() const { return ins_depth_ + (ins_depth_ > 0); }

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
    /// eventually returned given enough attempts).  The candidate is
    /// Listing 5's (select_min): the shared LSM is drawn from only when
    /// its snapshot holds a key below the local minimum, since otherwise
    /// the local item wins whatever the draw returns.
    bool try_delete_min(K &key, V &value) {
        const std::uint32_t slot = dir_.register_self();
        do {
            for (;;) {
                bool from_shared = false;
                item_ref<K, V> cand = select_min(slot, from_shared);
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
        bool from_shared = false;
        const item_ref<K, V> cand =
            select_min(dir_.register_self(), from_shared);
        if (cand.empty())
            return false;
        key = cand.key;
        value = cand.it->value();
        return cand.it->is_alive(cand.version);
    }

    /// Per-thread operation handle (buffered k-LSM).  Owned by exactly
    /// one thread; not thread-safe.
    ///
    ///   * insert: staged locally up to the buffer depth, then the
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
            const std::size_t depth = q_->ins_depth_;
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

    /// Aggregate allocation telemetry over every pool (item pools,
    /// DistLSM block pools, shared-LSM block pools); safe any time.
    /// The bool is ignored: ledger/ledger_bench.cpp still passes one.
    mm::memory_stats memory_stats(bool = false) const {
        mm::memory_stats out;
        for (const auto &d : dist_)
            d->collect_memory(out);
        shared_.collect_memory(out);
        return out;
    }

    /// Shrink every pool's cold storage right now (mm/reclaim/); no-op
    /// unless the queue was built with a shrink-enabled placement.
    /// PRECONDITION: no concurrent operations (workers joined).
    /// Returns the number of page-release events.
    std::size_t quiescent_shrink() {
        std::size_t released = 0;
        for (const auto &d : dist_)
            released += d->quiescent_shrink();
        released += shared_.quiescent_shrink();
        KLSM_TRACE_EVENT(trace::kind::reclaim_shrink, 0, released);
        return released;
    }

private:
    /// Listing 5: consult both components, prefer the smaller; a tie goes
    /// to the local item.  The shared find_min is skipped when its
    /// snapshot holds no key below the local minimum, as it cannot win
    /// (see the header): same choice, no draw.
    item_ref<K, V> select_min(std::uint32_t slot, bool &from_shared) {
        const item_ref<K, V> local = dist_[slot]->find_min(lazy_);
        if (!local.empty() && !shared_.has_key_below(local.key))
            return local;
        const item_ref<K, V> shared_cand = shared_.find_min(slot, lazy_);
        from_shared = !shared_cand.empty() &&
                      (local.empty() || shared_cand.key < local.key);
        return from_shared ? shared_cand : local;
    }

    bool spy(std::uint32_t slot) {
        // Bound the copy to k items (Section 4.2's space bound); always
        // allow at least one so spying makes progress for k == 0.
        const std::size_t cap = k_ > 0 ? k_ : 1;
        if (!dir_.any_victim(slot, [&](std::uint32_t victim) {
                return dist_[slot]->spy_from(*dist_[victim], cap);
            }))
            return false;
        note(adapt::event::spy);
        return true;
    }

    /// One predictable branch when no monitor is attached.
    void note(adapt::event e) {
        adapt::contention_monitor *m =
            monitor_.load(std::memory_order_relaxed);
        if (m)
            m->count(e);
    }

    const std::size_t k_;
    /// Handle insert-buffer depth, fixed before the first operation.
    std::size_t ins_depth_ = 0;
    /// Contention telemetry sink; null when no monitor is attached.
    std::atomic<adapt::contention_monitor *> monitor_{nullptr};
    Lazy lazy_;
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

    explicit dist_pq(mm::mem_placement place = {}) {
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

    /// Aggregate pool telemetry; see k_lsm::memory_stats.
    mm::memory_stats memory_stats() const {
        mm::memory_stats out;
        for (const auto &d : dist_)
            d->collect_memory(out);
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
        return dir_.any_victim(slot, [&](std::uint32_t victim) {
            return dist_[slot]->spy_from(*dist_[victim],
                                         dist_lsm_local<K, V>::unbounded);
        });
    }

    std::unique_ptr<dist_lsm_local<K, V>> dist_[max_registered_threads];
    slot_directory dir_;
};

} // namespace klsm
