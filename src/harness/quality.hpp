#pragma once

// Relaxation-quality measurement: rank error of delete-min.
//
// The paper's central semantic claim (Lemma 2) is the worst-case bound
// rho = T*k on how many smaller keys a delete-min may skip.  This harness
// measures the *observed* rank-error distribution: every queue operation
// is mirrored into an exact multiset under a global lock, and each
// delete's key is ranked against the mirror.  Serializing operations
// perturbs timing (quality under full concurrency can only be better
// bounded than measured here for lock-based comparators), but it makes
// every individual measurement exact — the standard methodology for
// relaxed-queue quality plots.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "klsm/pq_concept.hpp"
#include "stats/latency_recorder.hpp"
#include "topo/pinning.hpp"
#include "trace/progress.hpp"
#include "util/rng.hpp"
#include "util/thread_id.hpp"

namespace klsm {

struct quality_result {
    std::uint64_t deletes = 0;
    std::uint64_t rank_sum = 0;
    std::uint64_t rank_max = 0;
    /// Workers whose pin_self failed and therefore ran unpinned.
    std::uint64_t pin_failures = 0;
    /// rank histogram, bucketed by powers of two: bucket i counts ranks
    /// in [2^i - 1, 2^(i+1) - 1).
    std::uint64_t histogram[24] = {};

    double mean_rank() const {
        return deletes ? static_cast<double>(rank_sum) / deletes : 0.0;
    }

    void record(std::uint64_t rank) {
        ++deletes;
        rank_sum += rank;
        if (rank > rank_max)
            rank_max = rank;
        unsigned bucket = 0;
        while (bucket + 1 < 24 &&
               rank + 1 >= (std::uint64_t{1} << (bucket + 1)))
            ++bucket;
        ++histogram[bucket];
    }
};

/// Lemma 2's worst-case rank-error bound, extended for buffered handles:
///
///     rho = (T + 1) * k  +  T * buffer_total
///
/// T counts the worker threads; the prefill runs on the calling (main)
/// thread with direct (unbuffered) inserts, hence the +1 on the k term
/// but not on the buffer term.  `buffer_total` is the per-handle
/// hidden-item budget (k_lsm::buffer_total: the insert-buffer depth
/// plus the handle's one carried pair): every
/// worker can be hiding that many items from a given delete, each of
/// which may rank below the served key — so the relaxation budget
/// provably absorbs the buffering.  buffer_total = 0 gives the paper's
/// original (T+1)*k.
inline std::uint64_t rank_error_bound(unsigned worker_threads,
                                      std::uint64_t k,
                                      std::uint64_t buffer_total = 0) {
    return (static_cast<std::uint64_t>(worker_threads) + 1) * k +
           static_cast<std::uint64_t>(worker_threads) * buffer_total;
}

/// Concurrent-safe running rank-error accumulator the metrics sampler
/// reads mid-run, fed by a sampled subset of ranked deletes — quality
/// becomes observable *during* a run instead of only in the post-hoc
/// aggregate.
struct online_rank_stats {
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> rank_sum{0};
    std::atomic<std::uint64_t> rank_max{0};

    void record(std::uint64_t rank) {
        samples.fetch_add(1, std::memory_order_relaxed);
        rank_sum.fetch_add(rank, std::memory_order_relaxed);
        std::uint64_t cur = rank_max.load(std::memory_order_relaxed);
        while (rank > cur &&
               !rank_max.compare_exchange_weak(
                   cur, rank, std::memory_order_relaxed))
            ;
    }

    double mean() const {
        const std::uint64_t n = samples.load(std::memory_order_relaxed);
        return n ? static_cast<double>(
                       rank_sum.load(std::memory_order_relaxed)) /
                       static_cast<double>(n)
                 : 0.0;
    }
};

struct quality_params {
    std::size_t prefill = 10000;
    std::uint64_t ops_per_thread = 20000;
    unsigned threads = 4;
    std::uint64_t seed = 17;
    std::uint32_t key_range = 1 << 20;
    /// Placement order from topo::cpu_order: worker t pins itself to
    /// pin_cpus[t % size()] before operating.  Empty: no pinning.
    std::vector<std::uint32_t> pin_cpus;
    /// Optional per-op latency capture (src/stats/).  Only the queue
    /// operation itself is stamped, not the mirror bookkeeping, so the
    /// numbers are comparable with the throughput harness — though the
    /// serializing lock still changes contention, which is this
    /// harness's documented trade-off.  Must be sized for `threads`.
    stats::latency_recorder_set *latency = nullptr;
    /// Optional mid-run progress slots for the metrics sampler
    /// (src/trace/).
    trace::progress_counters *progress = nullptr;
    /// Optional online rank accumulator: every `rank_sample_stride`-th
    /// ranked delete also feeds this (sampled to keep the extra atomics
    /// off most operations).
    online_rank_stats *online_rank = nullptr;
    std::uint64_t rank_sample_stride = 16;
};

/// Drive `q` with a serialized 50/50 workload and measure delete-min
/// rank errors against an exact mirror.
template <typename PQ>
quality_result measure_rank_error(PQ &q, const quality_params &params) {
    check_thread_capacity(params.threads);
    std::multiset<std::uint64_t> mirror;
    std::mutex mtx;
    quality_result result;

    {
        // Serialized prefill, mirrored.
        xoroshiro128 rng{params.seed};
        for (std::size_t i = 0; i < params.prefill; ++i) {
            const auto key = static_cast<typename PQ::key_type>(
                rng.bounded(params.key_range));
            q.insert(key, typename PQ::value_type{});
            mirror.insert(key);
        }
    }

    std::atomic<std::uint64_t> pin_failures{0};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < params.threads; ++t) {
        ts.emplace_back([&, t] {
            if (!params.pin_cpus.empty() &&
                !topo::pin_self(
                    params.pin_cpus[t % params.pin_cpus.size()]))
                pin_failures.fetch_add(1, std::memory_order_relaxed);
            xoroshiro128 rng{params.seed + 31 * (t + 1)};
            typename PQ::key_type key;
            typename PQ::value_type value{};
            // The mirror tracks the caller-visible contract: a staged
            // insert counts as inserted the moment h.insert returns, so
            // the measured rank error includes any staleness buffering
            // introduces — exactly what the extended rho must absorb.
            auto h = pq_handle(q);
            std::uint64_t my_failed = 0;
            for (std::uint64_t i = 0; i < params.ops_per_thread; ++i) {
                if (params.progress != nullptr)
                    params.progress->publish(t, i, my_failed);
                if (rng.bounded(2) == 0) {
                    const auto k = static_cast<typename PQ::key_type>(
                        rng.bounded(params.key_range));
                    std::lock_guard<std::mutex> g(mtx);
                    stats::op_sample sample{params.latency, t,
                                            stats::op_kind::insert};
                    h.insert(k, value);
                    sample.commit();
                    mirror.insert(k);
                } else {
                    std::lock_guard<std::mutex> g(mtx);
                    stats::op_sample sample{params.latency, t,
                                            stats::op_kind::delete_min};
                    if (!h.try_delete_min(key, value)) {
                        ++my_failed;
                        continue;
                    }
                    sample.commit();
                    auto it = mirror.find(key);
                    if (it == mirror.end())
                        continue; // should not happen; be safe
                    const auto rank = static_cast<std::uint64_t>(
                        std::distance(mirror.begin(), it));
                    result.record(rank);
                    if (params.online_rank != nullptr &&
                        params.rank_sample_stride > 0 &&
                        result.deletes % params.rank_sample_stride == 0)
                        params.online_rank->record(rank);
                    mirror.erase(it);
                }
            }
        });
    }
    for (auto &t : ts)
        t.join();
    result.pin_failures = pin_failures.load();
    return result;
}

} // namespace klsm
