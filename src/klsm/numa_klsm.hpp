#pragma once

// NUMA-sharded k-LSM: one complete k_lsm per NUMA node.
//
// The k-LSM's shared component serializes block-array publication through
// a single point; on a multi-socket machine every publication bounces the
// cache line across the interconnect.  Sharding by NUMA node keeps both
// the DistLSM spill traffic and the shared-LSM publication point
// node-local:
//
//   * insert routes to the caller's node shard (detected once per thread
//     slot via sched_getcpu and cached; re-checked cheaply on every
//     operation so migrated threads re-home),
//   * try_delete_min services the local shard first and, on a randomized
//     period (expected every `remote_poll_period` deletes), polls a
//     remote shard instead — chosen best-of-two over the fullest-shard
//     hint plus one distinct random remote (probe both, take from the
//     one with the smaller observed minimum), so no node's keys are
//     starved and cross-node skew stays bounded in practice at two
//     probes per poll,
//   * when the local shard looks empty the delete sweeps *all* shards,
//     preferring the shard whose observed minimum is smallest, so the
//     queue drains globally and a false return means every shard was
//     observed empty.
//
// Relaxation: each shard individually guarantees rank error
// rho_shard = T*k (Lemma 2, T = threads that touched that shard).  On
// the all-shard paths (the periodic poll and the local-miss sweep) the
// delete takes from the shard whose observed minimum is smallest, so at
// most rho_shard smaller keys hide in each shard and the composed bound
//
//     rho <= nodes * (T*k + k)          (numa_rank_error_bound)
//
// holds structurally.  A purely *local* delete between polls, however,
// trades that bound for locality: under adversarial routing (all small
// keys inserted on one node while another node's thread deletes
// locally) it can skip arbitrarily many remote keys.  Under balanced
// routing — the whole point of inserting node-locally — observed rank
// error stays far below the composed bound (the concurrent tests check
// this), but it is a design property of the workload, not a worst-case
// guarantee.  With one shard the structure degenerates to a plain
// k_lsm and the composed formula is simply Lemma 2 plus slack, so the
// quality harness enforces it as a hard invariant exactly then.
//
// On a single-node machine (or under the containers' topology fallback)
// there is exactly one shard and the structure behaves as a plain k_lsm
// with one extra branch per operation.

#include <atomic>
#include <cstdint>
#include <memory>

#include "klsm/k_lsm.hpp"
#include "mm/alloc_stats.hpp"
#include "mm/placement.hpp"
#include "topo/pinning.hpp"
#include "topo/topology.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"
#include "util/thread_id.hpp"

namespace klsm {

/// Composed worst-case rank-error bound for a numa_klsm driven by the
/// quality harness (T = worker_threads + 1, see rank_error_bound).
inline std::uint64_t numa_rank_error_bound(std::uint32_t nodes,
                                           unsigned worker_threads,
                                           std::uint64_t k) {
    return static_cast<std::uint64_t>(nodes) *
           ((static_cast<std::uint64_t>(worker_threads) + 1) * k + k);
}

template <typename K, typename V, typename Lazy = no_lazy>
class numa_klsm {
public:
    using key_type = K;
    using value_type = V;

    /// Expected number of local deletes between two remote polls.
    static constexpr std::uint32_t remote_poll_period = 32;
    /// A thread refreshes the hot-shard hint every this many of its own
    /// inserts (see hot_shard_hint below).
    static constexpr std::uint32_t hint_update_period = 64;

    /// One shard per NUMA node of `t`; `k` is the per-shard relaxation.
    /// The topology reference must outlive the queue.  `alloc` is the
    /// page-placement policy for every shard's pools: under `bind` (or
    /// `firsttouch`) shard s's item and block pages target the NUMA
    /// node shard s serves, so a shard's blocks never live on a remote
    /// node's memory (ROADMAP "Per-node block pools").  `reclaim` rides
    /// into every shard's placement (src/mm/reclaim/).
    explicit numa_klsm(
        std::size_t k, const topo::topology &t = topo::topology::system(),
        Lazy lazy = {},
        mm::numa_alloc_policy alloc = mm::numa_alloc_policy::none,
        mm::reclaim_config reclaim = {})
        : topo_(t), num_shards_(t.num_nodes() ? t.num_nodes() : 1),
          k_(k), alloc_policy_(alloc) {
        shards_ = std::make_unique<std::unique_ptr<k_lsm<K, V, Lazy>>[]>(
            num_shards_);
        const auto &nodes = t.node_ids();
        for (std::uint32_t s = 0; s < num_shards_; ++s) {
            const std::uint32_t node =
                s < nodes.size() ? nodes[s] : s;
            shards_[s] = std::make_unique<k_lsm<K, V, Lazy>>(
                k, lazy,
                mm::mem_placement{alloc, node, reclaim});
        }
    }

    numa_klsm(const numa_klsm &) = delete;
    numa_klsm &operator=(const numa_klsm &) = delete;

    std::uint32_t num_shards() const { return num_shards_; }

    /// The per-shard relaxation every shard was constructed with.
    std::size_t relaxation() const { return k_; }

    /// Force the calling thread's home shard (dense node index).  Used
    /// by tests that model a multi-node machine on a single-node host,
    /// and by pinned runners that already know their node.  The pin is
    /// scoped to the calling thread's lifetime: when its slot is later
    /// recycled to another thread, the entry is detected as stale (slot
    /// generation mismatch) and re-derived from sched_getcpu.
    void set_home_shard(std::uint32_t shard) {
        home_entry &h = home_[thread_index()];
        h.generation = thread_generation();
        h.shard = shard % num_shards_;
        h.cpu.store(pinned_cpu, std::memory_order_relaxed);
    }

    void insert(const K &key, const V &value) {
        // Single shard (every single-node machine and container): skip
        // the home-shard bookkeeping so the structure really is a plain
        // k_lsm plus one branch.
        if (num_shards_ == 1) {
            shards_[0]->insert(key, value);
            return;
        }
        const std::uint32_t s = home_shard();
        shard(s).insert(key, value);
        maybe_update_hot_hint(s);
    }

    bool try_delete_min(K &key, V &value) {
        if (num_shards_ == 1)
            return shards_[0]->try_delete_min(key, value);
        const std::uint32_t local = home_shard();

        // Randomized periodic remote poll: expected once every
        // remote_poll_period deletes, drain a remote shard instead of
        // the local one.  Best-of-two (power of two choices): sample
        // two distinct remote shards and take from the one whose
        // observed minimum is smaller — near-optimal victim choice at
        // two probes instead of a full sweep, so the poll stays cheap
        // as the shard count grows.
        if (thread_rng().bounded(remote_poll_period) == 0 &&
            poll_remote_best_of_two(local, key, value))
            return true;

        if (shard(local).try_delete_min(key, value))
            return true;

        // Local shard observed empty: sweep everything, best shard
        // first, so false means all shards were observed empty.
        return take_from_best(key, value);
    }

    bool try_find_min(K &key, V &value) {
        bool found = false;
        K best_key{};
        V best_val{};
        for (std::uint32_t s = 0; s < num_shards_; ++s) {
            K k2;
            V v2;
            if (shard(s).try_find_min(k2, v2) &&
                (!found || k2 < best_key)) {
                best_key = k2;
                best_val = v2;
                found = true;
            }
        }
        if (found) {
            key = best_key;
            value = best_val;
        }
        return found;
    }

    std::size_t size_hint() const {
        std::size_t total = 0;
        for (std::uint32_t s = 0; s < num_shards_; ++s)
            total += shards_[s]->size_hint();
        return total;
    }

    /// Shard by dense node index, for white-box tests and diagnostics.
    k_lsm<K, V, Lazy> &shard(std::uint32_t s) { return *shards_[s]; }

    /// The page-placement policy every shard's pools were built with.
    mm::numa_alloc_policy alloc_policy() const { return alloc_policy_; }

    /// Aggregate allocation-placement telemetry over every shard; see
    /// k_lsm::memory_stats for the quiescence requirement of
    /// `query_residency`.
    mm::memory_stats memory_stats(bool query_residency = false) const {
        mm::memory_stats out;
        for (std::uint32_t s = 0; s < num_shards_; ++s)
            out.merge(shards_[s]->memory_stats(query_residency));
        return out;
    }

    /// See k_lsm::quiescent_shrink (same contract), over every shard.
    std::size_t quiescent_shrink() {
        std::size_t released = 0;
        for (std::uint32_t s = 0; s < num_shards_; ++s)
            released += shards_[s]->quiescent_shrink();
        return released;
    }

    /// The shared fullest-shard hint (white-box test accessor): a
    /// relaxed atomic refreshed on the insert path — every
    /// hint_update_period inserts a thread compares its home shard's
    /// item-count estimate against the hinted shard's and publishes its
    /// own shard when fuller.  Racy by design: any shard index is a
    /// valid hint, and a stale one only costs poll quality, never
    /// correctness.
    std::uint32_t hot_shard_hint() const {
        return hot_shard_.load(std::memory_order_relaxed);
    }

    /// The periodic remote poll (public for white-box tests): probe the
    /// hot-shard hint (when it names a remote shard; a uniformly random
    /// remote otherwise) plus one distinct random remote, observe each
    /// one's relaxed minimum, and delete from the shard whose minimum
    /// is smaller.  Hint + random replaces the earlier random + random:
    /// the power-of-two-choices shape is kept, but the first probe is
    /// steered at the shard most likely to hold backlog, so drain polls
    /// stop missing the hot shard as the shard count grows.  Returns
    /// false when the sampled shards look empty or the take races; the
    /// caller falls back to its local shard and, on a local miss, to
    /// the best-of-all sweep, so a false return never loses a key.
    bool poll_remote_best_of_two(std::uint32_t local, K &key, V &value) {
        if (num_shards_ < 2)
            return false;
        const std::uint32_t remotes = num_shards_ - 1;
        // Dense remote index -> shard index, skipping the local shard.
        const auto nth_remote = [&](std::uint32_t r) {
            return r >= local ? r + 1 : r;
        };
        const std::uint32_t hint =
            hot_shard_.load(std::memory_order_relaxed);
        std::uint32_t ra; // dense remote index of the first probe
        if (hint < num_shards_ && hint != local)
            ra = hint > local ? hint - 1 : hint;
        else
            ra = static_cast<std::uint32_t>(
                thread_rng().bounded(remotes));
        std::uint32_t chosen = nth_remote(ra);
        K ka{};
        V va{};
        bool have = shards_[chosen]->try_find_min(ka, va);
        if (remotes >= 2) {
            auto rb = static_cast<std::uint32_t>(
                thread_rng().bounded(remotes - 1));
            if (rb >= ra)
                ++rb; // distinct second sample
            const std::uint32_t b = nth_remote(rb);
            K kb{};
            V vb{};
            if (shards_[b]->try_find_min(kb, vb) && (!have || kb < ka)) {
                chosen = b;
                have = true;
            }
        }
        return have && shards_[chosen]->try_delete_min(key, value);
    }

private:
    static constexpr std::uint32_t unknown_cpu = 0xffffffffu;
    /// Sentinel cpu meaning "shard was fixed via set_home_shard".
    static constexpr std::uint32_t pinned_cpu = 0xfffffffeu;

    /// Dense shard index of the calling thread, cached per thread slot
    /// and refreshed whenever the OS reports a different cpu.  A slot
    /// inherited from an exited thread (generation mismatch) is reset so
    /// a stale set_home_shard pin or cpu cache never routes the new
    /// thread.
    std::uint32_t home_shard() {
        home_entry &h = home_[thread_index()];
        const std::uint32_t gen = thread_generation();
        std::uint32_t cached = h.cpu.load(std::memory_order_relaxed);
        if (h.generation != gen) {
            h.generation = gen;
            cached = unknown_cpu;
        }
        if (cached == pinned_cpu)
            return h.shard;
        const auto cur = topo::current_cpu();
        const std::uint32_t cpu = cur ? *cur : 0;
        if (cpu != cached) {
            h.shard = topo_.node_index(topo_.node_of(cpu)) % num_shards_;
            h.cpu.store(cpu, std::memory_order_relaxed);
        }
        return h.shard;
    }

    /// Every hint_update_period of this thread's inserts, publish its
    /// home shard as the hot-shard hint if it looks fuller than the
    /// currently hinted shard.  The tick lives in the thread's own
    /// home_entry (no shared state on the common path); the comparison
    /// uses size_hint, which is O(registered threads) — amortized to
    /// noise by the period.
    void maybe_update_hot_hint(std::uint32_t s) {
        home_entry &h = home_[thread_index()];
        if (++h.insert_tick < hint_update_period)
            return;
        h.insert_tick = 0;
        const std::uint32_t cur = hot_shard_.load(std::memory_order_relaxed);
        if (cur == s)
            return;
        if (cur >= num_shards_ ||
            shards_[s]->size_hint() > shards_[cur]->size_hint())
            hot_shard_.store(s, std::memory_order_relaxed);
    }

    /// Probe every shard's relaxed minimum and delete from the best one;
    /// falls back to any non-empty shard if the chosen take races.
    bool take_from_best(K &key, V &value) {
        std::uint32_t best = num_shards_;
        K best_key{};
        for (std::uint32_t s = 0; s < num_shards_; ++s) {
            K k2;
            V v2;
            if (shards_[s]->try_find_min(k2, v2) &&
                (best == num_shards_ || k2 < best_key)) {
                best = s;
                best_key = k2;
            }
        }
        if (best < num_shards_ &&
            shards_[best]->try_delete_min(key, value))
            return true;
        // The observed-best take can fail under contention; sweep all
        // shards so a false return means a full empty observation.
        for (std::uint32_t s = 0; s < num_shards_; ++s)
            if (shards_[s]->try_delete_min(key, value))
                return true;
        return false;
    }

    /// Cache-line padded: adjacent slots are hot in different threads
    /// on every operation (home_shard refreshes cpu on migration), and
    /// false sharing here would reintroduce exactly the cross-thread
    /// line bouncing the sharding exists to avoid.
    struct alignas(cache_line_size) home_entry {
        std::atomic<std::uint32_t> cpu{unknown_cpu};
        std::uint32_t shard = 0;
        /// thread_generation() of the slot holder that wrote this entry;
        /// 0 (never a real generation) marks a fresh entry.
        std::uint32_t generation = 0;
        /// Owner-only insert counter driving the hot-shard hint cadence.
        /// Survives slot recycling uncorrected — that only shifts the
        /// next refresh, never routing.
        std::uint32_t insert_tick = 0;
    };

    const topo::topology &topo_;
    const std::uint32_t num_shards_;
    const std::size_t k_;
    const mm::numa_alloc_policy alloc_policy_;
    std::unique_ptr<std::unique_ptr<k_lsm<K, V, Lazy>>[]> shards_;
    /// Fullest-shard hint for the remote poll; see hot_shard_hint().
    /// On its own cache line: hint stores would otherwise invalidate
    /// the line holding the read-only members above (topo_, shards_)
    /// that every insert/delete dereferences — reintroducing exactly
    /// the cross-core bouncing this class exists to avoid.
    alignas(cache_line_size) std::atomic<std::uint32_t> hot_shard_{0};
    home_entry home_[max_registered_threads];
};

} // namespace klsm
