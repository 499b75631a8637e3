#pragma once

// The paper's throughput benchmark (Section 6, Figure 3):
//
//   "a throughput benchmark, which lets all threads randomly insert and
//    delete keys from a priority queue that is prefilled with a given
//    number of keys. ... the ratio between insertions and deletions is
//    50-50. ... run for 10 seconds for each experiment, and the average
//    throughput per second is shown."
//
// Figure 3 plots throughput *per thread* per second, so a flat line is
// linear speedup.

#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "harness/workload.hpp"
#include "klsm/pq_concept.hpp"
#include "stats/latency_recorder.hpp"
#include "topo/pinning.hpp"
#include "util/rng.hpp"
#include "util/thread_id.hpp"
#include "util/timer.hpp"

namespace klsm {

struct throughput_result {
    std::uint64_t total_ops = 0;
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t failed_deletes = 0;
    /// Workers whose pin_self failed (restricted cpuset, stale cpu id):
    /// they ran unpinned.  Nonzero means the run's placement label lies.
    std::uint64_t pin_failures = 0;
    double elapsed_s = 0;

    double ops_per_sec() const {
        return elapsed_s > 0 ? static_cast<double>(total_ops) / elapsed_s
                             : 0;
    }
    double ops_per_thread_per_sec(unsigned threads) const {
        return threads > 0 ? ops_per_sec() / threads : 0;
    }
};

/// Run the 50/50 benchmark on an already-prefilled queue.
template <typename PQ>
throughput_result run_throughput(PQ &q, const throughput_params &params) {
    check_thread_capacity(params.threads);
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> inserts{0}, deletes{0}, failed{0};
    std::atomic<std::uint64_t> pin_failures{0};
    std::barrier sync{static_cast<std::ptrdiff_t>(params.threads) + 1};

    std::vector<std::thread> ts;
    for (unsigned t = 0; t < params.threads; ++t) {
        ts.emplace_back([&, t] {
            if (!params.pin_cpus.empty() &&
                !topo::pin_self(
                    params.pin_cpus[t % params.pin_cpus.size()]))
                pin_failures.fetch_add(1, std::memory_order_relaxed);
            xoroshiro128 rng{params.seed + 104729 * (t + 1)};
            const op_mix mix{params.insert_percent};
            const std::uint64_t mask =
                params.key_range_bits >= 64
                    ? ~std::uint64_t{0}
                    : ((std::uint64_t{1} << params.key_range_bits) - 1);
            std::uint64_t my_inserts = 0, my_deletes = 0, my_failed = 0;
            typename PQ::key_type key;
            typename PQ::value_type value{};
            auto h = pq_handle(q); // native or pass-through: ONE loop
            trace::progress_counters *const prog = params.progress;
            sync.arrive_and_wait();
            while (!stop.load(std::memory_order_relaxed)) {
                if (mix.is_insert(rng)) {
                    stats::op_sample sample{params.latency, t,
                                            stats::op_kind::insert};
                    h.insert(
                        static_cast<typename PQ::key_type>(rng() & mask),
                        value);
                    sample.commit();
                    ++my_inserts;
                } else {
                    stats::op_sample sample{params.latency, t,
                                            stats::op_kind::delete_min};
                    if (h.try_delete_min(key, value)) {
                        // Only successful deletes are recorded: a failed
                        // probe of an empty queue is a different (much
                        // cheaper) code path and would skew the tail.
                        sample.commit();
                        ++my_deletes;
                    } else {
                        ++my_failed;
                    }
                }
                if (prog != nullptr)
                    prog->publish(t,
                                  my_inserts + my_deletes + my_failed,
                                  my_failed);
            }
            // Publish buffered effects before the counters: the queue's
            // post-run state must reflect every counted op.
            h.flush();
            inserts.fetch_add(my_inserts);
            deletes.fetch_add(my_deletes);
            failed.fetch_add(my_failed);
        });
    }

    sync.arrive_and_wait(); // release the workers
    wall_timer timer;
    while (timer.elapsed_s() < params.duration_s)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stop.store(true, std::memory_order_relaxed);
    for (auto &t : ts)
        t.join();
    const double elapsed = timer.elapsed_s();

    throughput_result out;
    out.inserts = inserts.load();
    out.deletes = deletes.load();
    out.failed_deletes = failed.load();
    out.pin_failures = pin_failures.load();
    out.total_ops = out.inserts + out.deletes + out.failed_deletes;
    out.elapsed_s = elapsed;
    return out;
}

} // namespace klsm
