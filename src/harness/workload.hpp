#pragma once

// Workload generation for the throughput benchmark (paper Section 6):
// uniform random 32-bit keys, 50/50 insert/delete-min mix, queues
// prefilled with a given number of keys before timing starts.

#include <cstdint>
#include <thread>
#include <vector>

#include "klsm/pq_concept.hpp"
#include "trace/progress.hpp"
#include "util/rng.hpp"

namespace klsm {

namespace stats {
class latency_recorder_set;
}

/// Insert-vs-delete decision for mixed workloads — shared by the
/// closed-loop throughput harness and the open-loop service harness
/// (src/service/open_loop.hpp) so both draw the producer:consumer mix
/// from the same distribution in the same way: one bounded(100) draw
/// per operation.
struct op_mix {
    unsigned insert_percent = 50;
    template <typename Rng>
    bool is_insert(Rng &rng) const {
        return rng.bounded(100) < insert_percent;
    }
};

struct throughput_params {
    std::size_t prefill = 1000000; ///< keys inserted before timing
    double duration_s = 1.0;       ///< timed benchmark window
    unsigned threads = 1;
    /// Percentage of operations that are inserts (the paper uses 50).
    unsigned insert_percent = 50;
    std::uint64_t seed = 1;
    std::uint32_t key_range_bits = 32;
    /// Placement order from topo::cpu_order: worker t pins itself to
    /// pin_cpus[t % size()] before the start barrier.  Empty: no pinning.
    std::vector<std::uint32_t> pin_cpus;
    /// Optional per-op latency capture (src/stats/): worker t records
    /// into latency->slot(t).  Null or stride-0: no capture, and the
    /// hot loop pays only a branch.  Must be sized for `threads`.
    stats::latency_recorder_set *latency = nullptr;
    /// Optional mid-run progress slots for the metrics sampler
    /// (src/trace/): worker t relaxed-stores its cumulative op and
    /// failed-delete tallies into slot t every iteration.  Null: the
    /// hot loop pays only a branch.
    trace::progress_counters *progress = nullptr;
};

/// Prefill `q` with uniformly random keys using several helper threads
/// (bounded, so the prefill itself doesn't exhaust thread slots).
template <typename PQ>
void prefill_queue(PQ &q, std::size_t n, std::uint64_t seed,
                   std::uint32_t key_bits = 32, unsigned threads = 4) {
    if (n == 0)
        return;
    if (threads <= 1) {
        xoroshiro128 rng{seed};
        const std::uint64_t mask =
            key_bits >= 64 ? ~std::uint64_t{0}
                           : ((std::uint64_t{1} << key_bits) - 1);
        auto h = pq_handle(q);
        for (std::size_t i = 0; i < n; ++i)
            h.insert(static_cast<typename PQ::key_type>(rng() & mask),
                     typename PQ::value_type{});
        h.flush(); // every prefilled key visible before timing starts
        return;
    }
    std::vector<std::thread> ts;
    const std::size_t share = n / threads;
    for (unsigned t = 0; t < threads; ++t) {
        const std::size_t count =
            t + 1 == threads ? n - share * (threads - 1) : share;
        ts.emplace_back([&q, count, seed, t, key_bits] {
            xoroshiro128 rng{seed + t * 7919};
            const std::uint64_t mask =
                key_bits >= 64 ? ~std::uint64_t{0}
                               : ((std::uint64_t{1} << key_bits) - 1);
            auto h = pq_handle(q);
            for (std::size_t i = 0; i < count; ++i)
                h.insert(static_cast<typename PQ::key_type>(rng() & mask),
                         typename PQ::value_type{});
            h.flush(); // before the worker joins: see single-thread path
        });
    }
    for (auto &t : ts)
        t.join();
}

} // namespace klsm
