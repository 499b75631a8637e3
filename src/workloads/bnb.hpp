#pragma once

// Best-first 0/1-knapsack branch-and-bound — the application workload
// where queue *ordering quality* becomes end-to-end runtime.  A
// relaxed delete_min hands a worker a less-promising subproblem: still
// correct (bounding prunes it eventually) but potentially wasted work,
// so the expanded-node count and the time until the incumbent reaches
// the known optimum measure what the rank-error microbenches can't.
//
// Promoted from examples/branch_and_bound.cpp with two changes that
// make it a harness citizen:
//
//   - subproblems are bit-packed into the queue's 64-bit value (depth |
//     remaining capacity | accumulated value) instead of indexing a
//     mutex-guarded arena, so the workload measures the queue rather
//     than a side lock;
//   - termination is a work-stealing-free drain: `outstanding` counts
//     live subproblems (incremented before insert, decremented after a
//     pop is fully processed), and a worker whose pop fails flushes its
//     handle buffers — so buffered inserts can never deadlock the
//     drain — and exits once outstanding is 0 (the frontier is seeded
//     before the workers start, so 0 means the tree is exhausted).
//
// Instances are generated deterministically from a seed with
// uncorrelated weights and values: diverse subproblem values spread
// the frontier's bound spectrum, so there is a real band of
// prunable-but-queued nodes for a relaxed pop order to waste work on
// (correlated instances collapse that band — every completion lands
// within noise of the optimum and expansion counts go
// order-invariant).  The optimum is computed up front by dynamic
// programming over capacity, which gives every run a correctness
// check *and* an online time-to-optimum measurement.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "klsm/pq_concept.hpp"
#include "stats/latency_recorder.hpp"
#include "topo/pinning.hpp"
#include "trace/progress.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"
#include "util/thread_id.hpp"
#include "util/timer.hpp"

namespace klsm::workloads {

struct knapsack_instance {
    std::vector<std::uint32_t> weight;
    std::vector<std::uint32_t> value;
    std::uint64_t capacity = 0;
    /// Item indices in decreasing density order (for the bound).
    std::vector<std::uint32_t> order;
    /// Dynamic-programming reference solution.
    std::uint64_t optimum = 0;

    std::uint32_t items() const {
        return static_cast<std::uint32_t>(weight.size());
    }
};

/// Subproblem state: items [0, depth) of the density order decided.
struct bnb_subproblem {
    std::uint32_t depth = 0;
    std::uint64_t remaining = 0;
    std::uint64_t value = 0;
};

// Bit layout of a subproblem in the queue's 64-bit value slot:
// depth in the low 16 bits, remaining capacity in the next 24,
// accumulated value in the top 24.  make_knapsack() bounds instances
// so every field fits.
inline constexpr std::uint64_t bnb_field_cap = std::uint64_t{1} << 24;

inline std::uint64_t pack_subproblem(const bnb_subproblem &sp) {
    return static_cast<std::uint64_t>(sp.depth & 0xffffu) |
           (sp.remaining << 16) | (sp.value << 40);
}

inline bnb_subproblem unpack_subproblem(std::uint64_t v) {
    bnb_subproblem sp;
    sp.depth = static_cast<std::uint32_t>(v & 0xffffu);
    sp.remaining = (v >> 16) & (bnb_field_cap - 1);
    sp.value = v >> 40;
    return sp;
}

/// Fractional (LP) bound: greedy by density over the undecided suffix,
/// +1 so the bound is strictly optimistic after truncation.
inline std::uint64_t knapsack_upper_bound(const knapsack_instance &ks,
                                          const bnb_subproblem &sp) {
    double bound = static_cast<double>(sp.value);
    std::uint64_t cap = sp.remaining;
    for (std::uint32_t i = sp.depth; i < ks.order.size(); ++i) {
        const std::uint32_t it = ks.order[i];
        if (ks.weight[it] <= cap) {
            cap -= ks.weight[it];
            bound += ks.value[it];
        } else {
            bound +=
                static_cast<double>(ks.value[it]) * cap / ks.weight[it];
            break;
        }
    }
    return static_cast<std::uint64_t>(bound) + 1;
}

/// Classic DP over capacity — the reference every parallel run is
/// checked against.
inline std::uint64_t knapsack_dp(const knapsack_instance &ks) {
    std::vector<std::uint64_t> best(ks.capacity + 1, 0);
    for (std::size_t i = 0; i < ks.weight.size(); ++i)
        for (std::uint64_t c = ks.capacity; c >= ks.weight[i]; --c)
            best[c] = std::max(best[c], best[c - ks.weight[i]] +
                                            ks.value[i]);
    return best[ks.capacity];
}

/// Compute the density order and the DP optimum for an instance whose
/// weight/value/capacity are already set.  Throws if any field would
/// overflow the 24-bit packing.
inline void finalize_instance(knapsack_instance &ks) {
    std::uint64_t total_weight = 0, total_value = 0;
    for (std::size_t i = 0; i < ks.weight.size(); ++i) {
        total_weight += ks.weight[i];
        total_value += ks.value[i];
    }
    if (ks.weight.size() > 0xffffu || ks.capacity >= bnb_field_cap ||
        total_weight >= bnb_field_cap || total_value >= bnb_field_cap)
        throw std::invalid_argument(
            "knapsack instance exceeds 16/24/24-bit subproblem packing");
    ks.order.resize(ks.weight.size());
    for (std::uint32_t i = 0; i < ks.order.size(); ++i)
        ks.order[i] = i;
    std::sort(ks.order.begin(), ks.order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return static_cast<double>(ks.value[a]) / ks.weight[a] >
                         static_cast<double>(ks.value[b]) / ks.weight[b];
              });
    ks.optimum = knapsack_dp(ks);
}

/// Deterministic instance generation: uncorrelated weights and values
/// and capacity at half the total weight.  Weights and values are
/// independent: value diversity is what makes expanded-node counts
/// order-sensitive — a wrong early branch caps its subtree's best
/// completion well below the optimum, so an exact queue prunes it
/// where a relaxed one expands it.
inline knapsack_instance make_knapsack(std::uint32_t items,
                                       std::uint64_t seed) {
    knapsack_instance ks;
    xoroshiro128 rng{seed ^ 0x9e3779b97f4a7c15ull};
    std::uint64_t total_weight = 0;
    for (std::uint32_t i = 0; i < items; ++i) {
        const auto w = static_cast<std::uint32_t>(rng.range(50, 1000));
        ks.weight.push_back(w);
        ks.value.push_back(static_cast<std::uint32_t>(rng.range(50, 1000)));
        total_weight += w;
    }
    ks.capacity = total_weight / 2;
    finalize_instance(ks);
    return ks;
}

struct bnb_params {
    unsigned threads = 4;
    /// Pre-enumerate the tree breadth-first to this depth and seed the
    /// queue with the whole frontier (~2^depth subproblems) instead of
    /// just the root.  Without it a single worker's dive stays inside
    /// its thread-local (exact) component and finds the optimum before
    /// relaxation can matter at all; a frontier wider than k forces
    /// the search through the shared, relaxed ordering.  0 = root only.
    std::uint32_t seed_frontier_depth = 0;
    std::vector<std::uint32_t> pin_cpus;
    stats::latency_recorder_set *latency = nullptr;
    trace::progress_counters *progress = nullptr;
};

struct bnb_result {
    std::uint64_t best = 0;
    std::uint64_t expanded = 0;
    /// Expansions whose bound could not beat the true optimum — work a
    /// clairvoyant best-first search would have pruned.  Grows with
    /// relaxation: the looser the pop order, the more stale frontier
    /// nodes get expanded before the incumbent tightens.
    std::uint64_t wasted_expansions = 0;
    /// Pops discarded without expansion (bound had fallen below the
    /// incumbent by the time the node surfaced, or depth exhausted).
    std::uint64_t pruned_pops = 0;
    std::uint64_t pushed = 0;
    std::uint64_t failed_pops = 0;
    std::uint64_t pin_failures = 0;
    double elapsed_s = 0;
    /// Seconds until the incumbent first reached the DP optimum
    /// (negative if it never did — a correctness failure).
    double time_to_optimum_s = -1.0;

    double ops_per_sec() const {
        const auto ops = expanded + pruned_pops + pushed;
        return elapsed_s > 0 ? static_cast<double>(ops) / elapsed_s : 0;
    }
};

/// Run best-first branch-and-bound to completion on an empty queue.
/// The queue must have uint64 keys and values; the key is the
/// bit-flipped bound so the most promising subproblem pops first.
template <typename PQ>
bnb_result run_bnb(PQ &q, const knapsack_instance &ks,
                   const bnb_params &params) {
    check_thread_capacity(params.threads);
    constexpr std::uint64_t key_flip = ~std::uint64_t{0};

    std::atomic<std::uint64_t> incumbent{0};
    std::atomic<std::int64_t> outstanding{0};
    std::atomic<std::uint64_t> expanded{0}, wasted{0}, pruned{0};
    std::atomic<std::uint64_t> pushed{0}, failed{0}, pin_failures{0};
    std::atomic<std::uint64_t> t_opt_ns{~std::uint64_t{0}};
    if (ks.optimum == 0) // nothing fits: the empty incumbent is optimal
        t_opt_ns.store(0);
    std::barrier sync{static_cast<std::ptrdiff_t>(params.threads) + 1};
    wall_timer timer; // reset by the main thread at the start barrier

    // Seed the queue before the workers start: breadth-first expansion
    // to seed_frontier_depth (no pruning — the incumbent is still 0),
    // every frontier node inserted with its bound.  Happens-before the
    // workers via the start barrier, so no worker can observe
    // outstanding == 0 before the tree is live.
    {
        std::vector<bnb_subproblem> frontier{
            bnb_subproblem{0, ks.capacity, 0}};
        const std::uint32_t depth_cap =
            std::min(params.seed_frontier_depth, ks.items() - 1);
        for (std::uint32_t d = 0; d < depth_cap; ++d) {
            std::vector<bnb_subproblem> next;
            next.reserve(frontier.size() * 2);
            for (const auto &sp : frontier) {
                const std::uint32_t it = ks.order[sp.depth];
                if (ks.weight[it] <= sp.remaining) {
                    bnb_subproblem take = sp;
                    ++take.depth;
                    take.remaining -= ks.weight[it];
                    take.value += ks.value[it];
                    next.push_back(take);
                }
                bnb_subproblem skip = sp;
                ++skip.depth;
                next.push_back(skip);
            }
            frontier = std::move(next);
        }
        auto h = pq_handle(q);
        for (const auto &sp : frontier) {
            outstanding.fetch_add(1, std::memory_order_acq_rel);
            h.insert(key_flip - knapsack_upper_bound(ks, sp),
                     pack_subproblem(sp));
        }
        h.flush();
        pushed.store(frontier.size());
    }

    std::vector<std::thread> pool;
    for (unsigned t = 0; t < params.threads; ++t) {
        pool.emplace_back([&, t] {
            if (!params.pin_cpus.empty() &&
                !topo::pin_self(
                    params.pin_cpus[t % params.pin_cpus.size()]))
                pin_failures.fetch_add(1, std::memory_order_relaxed);
            auto h = pq_handle(q);
            trace::progress_counters *const prog = params.progress;
            std::uint64_t my_expanded = 0, my_wasted = 0, my_pruned = 0;
            std::uint64_t my_pushed = 0, my_failed = 0;

            // Bound, prune-at-generation, account, insert.  The
            // outstanding increment happens *before* the insert so a
            // concurrent failed-pop cannot observe an empty queue and
            // a zero count while this subproblem is in flight.
            auto push = [&](const bnb_subproblem &sp) {
                const std::uint64_t bound = knapsack_upper_bound(ks, sp);
                if (bound <= incumbent.load(std::memory_order_relaxed))
                    return;
                outstanding.fetch_add(1, std::memory_order_acq_rel);
                stats::op_sample sample{params.latency, t,
                                        stats::op_kind::insert};
                h.insert(key_flip - bound, pack_subproblem(sp));
                sample.commit();
                ++my_pushed;
            };

            sync.arrive_and_wait();

            std::uint64_t key, packed;
            for (;;) {
                bool ok;
                {
                    stats::op_sample sample{params.latency, t,
                                            stats::op_kind::delete_min};
                    ok = h.try_delete_min(key, packed);
                    if (ok)
                        sample.commit();
                }
                if (!ok) {
                    ++my_failed;
                    // Publish our own buffered inserts: otherwise this
                    // worker could spin on an "empty" queue whose only
                    // live nodes sit in its private buffer.
                    h.flush();
                    if (outstanding.load(std::memory_order_acquire) == 0)
                        break;
                    if (prog != nullptr)
                        prog->publish(t,
                                      my_expanded + my_pruned +
                                          my_pushed + my_failed,
                                      my_failed);
                    continue;
                }
                const bnb_subproblem sp = unpack_subproblem(packed);
                const std::uint64_t bound = key_flip - key;
                // Incumbent updates happen at complete assignments only
                // (textbook best-first B&B).  That makes expanded-node
                // count a *relaxation-sensitive* scalar: while a dive
                // towards the first good leaf is in flight, a relaxed
                // pop order keeps expanding loose frontier nodes an
                // exact queue would have held back until the incumbent
                // could prune them.
                auto complete = [&](std::uint64_t value) {
                    std::uint64_t inc =
                        incumbent.load(std::memory_order_relaxed);
                    while (value > inc &&
                           !incumbent.compare_exchange_weak(inc, value))
                        ;
                    if (value >= ks.optimum) {
                        // First arrival at the optimum wins the
                        // time-to-optimum stamp.
                        std::uint64_t unset = ~std::uint64_t{0};
                        t_opt_ns.compare_exchange_strong(
                            unset, timer.elapsed_ns());
                    }
                };
                if (bound > incumbent.load(std::memory_order_relaxed) &&
                    sp.depth < ks.items()) {
                    ++my_expanded;
                    if (bound <= ks.optimum)
                        ++my_wasted;
                    KLSM_TRACE_EVENT(trace::kind::bnb_expand, sp.depth,
                                     bound);
                    const std::uint32_t it = ks.order[sp.depth];
                    const bool leaf = sp.depth + 1 == ks.items();
                    // Branch 1: take the item (if it fits).
                    if (ks.weight[it] <= sp.remaining) {
                        bnb_subproblem take = sp;
                        ++take.depth;
                        take.remaining -= ks.weight[it];
                        take.value += ks.value[it];
                        if (leaf)
                            complete(take.value);
                        else
                            push(take);
                    }
                    // Branch 2: skip the item.
                    if (leaf) {
                        complete(sp.value);
                    } else {
                        bnb_subproblem skip = sp;
                        ++skip.depth;
                        push(skip);
                    }
                } else {
                    ++my_pruned;
                }
                outstanding.fetch_sub(1, std::memory_order_acq_rel);
                if (prog != nullptr)
                    prog->publish(t,
                                  my_expanded + my_pruned + my_pushed +
                                      my_failed,
                                  my_failed);
            }
            h.flush();
            expanded.fetch_add(my_expanded);
            wasted.fetch_add(my_wasted);
            pruned.fetch_add(my_pruned);
            pushed.fetch_add(my_pushed);
            failed.fetch_add(my_failed);
        });
    }

    timer.reset();
    sync.arrive_and_wait(); // release the workers
    for (auto &th : pool)
        th.join();

    bnb_result out;
    out.elapsed_s = timer.elapsed_s();
    out.best = incumbent.load();
    out.expanded = expanded.load();
    out.wasted_expansions = wasted.load();
    out.pruned_pops = pruned.load();
    out.pushed = pushed.load();
    out.failed_pops = failed.load();
    out.pin_failures = pin_failures.load();
    const std::uint64_t opt_ns = t_opt_ns.load();
    if (opt_ns != ~std::uint64_t{0})
        out.time_to_optimum_s = static_cast<double>(opt_ns) * 1e-9;
    return out;
}

} // namespace klsm::workloads
