#pragma once

// Parallel label-correcting SSSP (paper Section 6):
//
//   "a label-correcting version of Dijkstra's algorithm, which is
//    parallelized in a straightforward manner using a concurrent
//    priority queue.  It uses a lazy deletion scheme in connection with
//    reinsertion of keys instead of an explicit decrease-key operation."
//
// Each thread pops (distance, node) entries; entries whose distance
// exceeds the node's current tentative distance are stale and skipped.
// Relaxations CAS the tentative-distance array and reinsert.  Because
// relaxed queues may return out-of-order minima, nodes can be expanded
// more than once ("additional iterations"), which the harness reports
// exactly as the paper does.
//
// Termination: `pending` is the termination counter.  At every instant
//
//     pending >= queued entries + entries being expanded,
//
// and it reaches 0 only when the queue is empty and no worker can
// produce new work.  A worker relaxes all arcs of a popped node first,
// collecting the improved (distance, node) pairs, then settles the
// expansion with one `pending.fetch_add(improved - 1 - owed)` and only
// then inserts the pairs.  Every increment lands before the inserts it
// counts; only decrements are deferred.  A stale pop adds 1 to the
// worker's local `owed` instead of touching `pending`, and a failed pop
// subtracts `owed` before it tests `pending == 0`, so `pending` reaches
// 0 only after every idle worker has flushed what it owes.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "klsm/item.hpp"
#include "stats/latency_recorder.hpp"
#include "topo/pinning.hpp"
#include "util/backoff.hpp"
#include "util/thread_id.hpp"

namespace klsm {

struct sssp_stats {
    std::uint64_t expansions = 0; ///< non-stale pops (node expansions)
    std::uint64_t stale_pops = 0; ///< lazy-deleted entries skipped
    std::uint64_t settled = 0;    ///< reachable nodes
    /// Workers whose pin_self failed and therefore ran unpinned.
    std::uint64_t pin_failures = 0;
};

/// Shared tentative-distance state; also serves as the lazy-deletion
/// oracle for the k-LSM (an item is expired iff a strictly smaller
/// distance is already recorded for its node).
class sssp_state {
public:
    explicit sssp_state(std::uint32_t nodes)
        : dist_(std::make_unique<std::atomic<std::uint64_t>[]>(nodes)),
          nodes_(nodes) {
        for (std::uint32_t i = 0; i < nodes; ++i)
            dist_[i].store(sssp_unreached, std::memory_order_relaxed);
    }

    /// Termination counter: at every instant at least the queued entries
    /// plus the entries being expanded.  Each entry is counted before it
    /// is inserted and uncounted once, after it leaves the queue: by its
    /// expansion's settling add, by its popper's deferred `owed` flush
    /// (stale pops), or by the lazy-deletion notification below.
    std::atomic<std::int64_t> &pending() { return pending_; }

    /// The queue dropped an entry it will never return: uncount it at
    /// once.  The entry had been counted before its insert, so the
    /// invariant on pending() holds.
    void entry_dropped() {
        pending_.fetch_sub(1, std::memory_order_acq_rel);
    }

    std::uint64_t dist(std::uint32_t node) const {
        return dist_[node].load(std::memory_order_relaxed);
    }

    /// CAS-relax: record `nd` for `node` if it improves; returns true if
    /// this call made an improvement.
    bool relax(std::uint32_t node, std::uint64_t nd) {
        std::uint64_t cur = dist_[node].load(std::memory_order_relaxed);
        while (nd < cur) {
            if (dist_[node].compare_exchange_weak(
                    cur, nd, std::memory_order_acq_rel,
                    std::memory_order_relaxed))
                return true;
        }
        return false;
    }

    const std::atomic<std::uint64_t> *raw() const { return dist_.get(); }
    std::uint32_t num_nodes() const { return nodes_; }

    std::vector<std::uint64_t> snapshot() const {
        std::vector<std::uint64_t> out(nodes_);
        for (std::uint32_t i = 0; i < nodes_; ++i)
            out[i] = dist_[i].load(std::memory_order_relaxed);
        return out;
    }

private:
    std::unique_ptr<std::atomic<std::uint64_t>[]> dist_;
    std::atomic<std::int64_t> pending_{0};
    std::uint32_t nodes_;
};

/// The lazy-deletion policy plugged into k_lsm for SSSP (Section 4.5).
///
/// The verdict reads the item's own key, not the key cached in the
/// block entry: a merge may read a torn entry from a recycled block
/// (item and version of the new entry, cached key of the old one), and
/// the take that follows certifies only the item's payload, through
/// its version.  Judging the cached key could drop a live entry.
struct sssp_lazy {
    sssp_state *state = nullptr;

    bool operator()(const std::uint64_t &,
                    const item<std::uint64_t, std::uint32_t> *it) const {
        return state->dist(it->value()) < it->key();
    }

    /// The queue lazily deleted one entry: keep the termination counter
    /// balanced.
    void dropped() const { state->entry_dropped(); }
};

/// Run label-correcting SSSP on `pq` with `threads` workers.  The queue
/// must be empty; keys are distances, values are node ids.  A non-empty
/// `pin_cpus` (a topo::cpu_order placement) pins worker t to
/// pin_cpus[t % size()] before it starts popping.  A non-null `latency`
/// recorder set (sized for `threads`) captures per-op insert and
/// successful-pop latencies at its sampling stride.
template <typename PQ>
sssp_stats parallel_sssp(PQ &pq, const graph &g, graph::node_id source,
                         unsigned threads, sssp_state &state,
                         const std::vector<std::uint32_t> &pin_cpus = {},
                         stats::latency_recorder_set *latency = nullptr) {
    check_thread_capacity(threads);
    std::atomic<std::int64_t> &pending = state.pending();
    std::atomic<std::uint64_t> expansions{0};
    std::atomic<std::uint64_t> stale{0};
    std::atomic<std::uint64_t> pin_failures{0};

    state.relax(source, 0);
    // `pending` is raised before any worker starts, so no worker can
    // observe 0 before the seed entry exists.
    pending.store(1, std::memory_order_release);

    auto worker = [&](unsigned t, bool seed) {
        if (!pin_cpus.empty() &&
            !topo::pin_self(pin_cpus[t % pin_cpus.size()]))
            pin_failures.fetch_add(1, std::memory_order_relaxed);
        // The seed entry must be inserted by a *worker*: queues with
        // thread-private buffers (hybrid_k_pq) can only pop entries from
        // the inserting thread until they spill.
        if (seed)
            pq.insert(0, source);
        std::uint64_t d;
        graph::node_id u;
        exp_backoff backoff;
        std::uint64_t my_expansions = 0;
        std::uint64_t my_stale = 0;
        // Stale pops not yet subtracted from `pending`.
        std::int64_t owed = 0;
        std::vector<std::pair<std::uint64_t, graph::node_id>> improved;
        for (;;) {
            stats::op_sample pop_sample{latency, t,
                                        stats::op_kind::delete_min};
            if (!pq.try_delete_min(d, u)) {
                if (owed != 0) {
                    pending.fetch_sub(owed, std::memory_order_acq_rel);
                    owed = 0;
                }
                if (pending.load(std::memory_order_acquire) == 0)
                    break;
                backoff();
                continue;
            }
            pop_sample.commit();
            backoff.reset();
            if (d > state.dist(u)) {
                // Stale entry (lazy deletion).
                ++my_stale;
                ++owed;
                continue;
            }
            ++my_expansions;
            const auto neighbors = g.neighbors(u);
            const auto weights = g.weights(u);
            improved.clear();
            for (std::size_t i = 0; i < neighbors.size(); ++i) {
                const std::uint64_t nd = d + weights[i];
                if (state.relax(neighbors[i], nd))
                    improved.emplace_back(nd, neighbors[i]);
            }
            // Count the new entries and uncount this one and the stale
            // pops before any insert, so `pending` never falls below
            // what the queue holds.
            const std::int64_t delta =
                static_cast<std::int64_t>(improved.size()) - 1 - owed;
            if (delta != 0)
                pending.fetch_add(delta, std::memory_order_acq_rel);
            owed = 0;
            for (const auto &[nd, v] : improved) {
                stats::op_sample ins_sample{latency, t,
                                            stats::op_kind::insert};
                pq.insert(nd, v);
                ins_sample.commit();
            }
        }
        expansions.fetch_add(my_expansions, std::memory_order_relaxed);
        stale.fetch_add(my_stale, std::memory_order_relaxed);
    };

    // Inline execution only when unpinned: pinning must happen on a
    // spawned worker so the caller's affinity mask (inherited by every
    // thread it spawns later) is never narrowed as a side effect.
    if (threads <= 1 && pin_cpus.empty()) {
        worker(0, true);
    } else if (threads <= 1) {
        std::thread t(worker, 0u, true);
        t.join();
    } else {
        std::vector<std::thread> ts;
        ts.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            ts.emplace_back(worker, t, t == 0);
        for (auto &t : ts)
            t.join();
    }

    sssp_stats out;
    out.expansions = expansions.load();
    out.stale_pops = stale.load();
    out.pin_failures = pin_failures.load();
    for (std::uint32_t i = 0; i < state.num_nodes(); ++i)
        out.settled += (state.dist(i) != sssp_unreached);
    return out;
}

} // namespace klsm
