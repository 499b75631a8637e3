#pragma once

// Parallel discrete-event simulation (PHOLD-style self-messaging) —
// the application workload where a relaxed delete_min is not merely
// wasted work but a *causality violation*.
//
// The model: `lps` logical processes, each with a monotone virtual
// clock, and a fixed population of in-flight events.  A worker pops
// the (globally) earliest event (timestamp, lp), commits it against
// the target LP's clock, and schedules one successor at a random LP a
// random virtual-time increment in the future — so the event
// population is constant and the queue is always `population` deep,
// exactly the regime where relaxation pays on throughput.
//
// Commit-time causality check: optimistic PDES engines tolerate
// out-of-order execution up to the model's lookahead (the minimum
// timestamp increment any event can add).  An event whose timestamp
// is more than `lookahead` behind its LP's clock would have had to be
// rolled back; we count it as a violation instead of simulating
// rollback, so the scalar "events/sec at a violation budget" directly
// prices the k-induced reordering.  With an exact queue and one
// worker the count is provably zero; it grows with k because the
// queue's rank error bounds how far behind the global frontier a
// popped event can be.

#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
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

struct des_params {
    /// Logical processes (each carries one atomic virtual clock).
    std::uint32_t lps = 256;
    /// In-flight event population, seeded before the run and kept
    /// constant by self-messaging.
    std::uint32_t population = 4096;
    /// Stop after this many committed events (total across threads).
    std::uint64_t target_events = 200000;
    /// Model lookahead in virtual time: the minimum increment every
    /// scheduled successor adds, and symmetrically the commit-lag an
    /// LP tolerates before counting a causality violation.
    std::uint64_t lookahead = 0;
    /// Mean of the uniform random part of the timestamp increment.
    std::uint64_t mean_delay = 64;

    unsigned threads = 4;
    std::uint64_t seed = 1;
    std::vector<std::uint32_t> pin_cpus;
    stats::latency_recorder_set *latency = nullptr;
    trace::progress_counters *progress = nullptr;
};

struct des_result {
    std::uint64_t committed = 0;
    std::uint64_t scheduled = 0;
    /// Events that arrived more than `lookahead` behind their LP's
    /// clock — work an optimistic simulator would roll back.
    std::uint64_t violations = 0;
    /// Worst observed commit lag beyond the lookahead, in virtual time.
    std::uint64_t max_lag = 0;
    /// Highest virtual timestamp committed (simulation horizon reached).
    std::uint64_t virtual_time = 0;
    std::uint64_t failed_pops = 0;
    std::uint64_t pin_failures = 0;
    double elapsed_s = 0;

    double events_per_sec() const {
        return elapsed_s > 0 ? static_cast<double>(committed) / elapsed_s
                             : 0;
    }
    double violation_fraction() const {
        return committed > 0
                   ? static_cast<double>(violations) / committed
                   : 0;
    }
};

/// Run the PHOLD model on an empty queue (uint64 keys = timestamps,
/// uint64 values = LP ids) until `target_events` commits.
template <typename PQ>
des_result run_des(PQ &q, const des_params &params) {
    check_thread_capacity(params.threads);
    std::vector<std::atomic<std::uint64_t>> clocks(params.lps);
    for (auto &c : clocks)
        c.store(0, std::memory_order_relaxed);

    // Seed the fixed event population before the clock starts.
    {
        xoroshiro128 rng{params.seed};
        auto h = pq_handle(q);
        for (std::uint32_t i = 0; i < params.population; ++i)
            h.insert(1 + rng.bounded(2 * params.mean_delay + 1),
                     rng.bounded(params.lps));
        h.flush();
    }

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> committed{0}, scheduled{0}, violations{0};
    std::atomic<std::uint64_t> max_lag{0}, virtual_time{0};
    std::atomic<std::uint64_t> failed{0}, pin_failures{0};
    std::barrier sync{static_cast<std::ptrdiff_t>(params.threads) + 1};
    wall_timer timer;

    std::vector<std::thread> pool;
    for (unsigned t = 0; t < params.threads; ++t) {
        pool.emplace_back([&, t] {
            if (!params.pin_cpus.empty() &&
                !topo::pin_self(
                    params.pin_cpus[t % params.pin_cpus.size()]))
                pin_failures.fetch_add(1, std::memory_order_relaxed);
            xoroshiro128 rng{params.seed + 104729 * (t + 1)};
            auto h = pq_handle(q);
            trace::progress_counters *const prog = params.progress;
            std::uint64_t my_committed = 0, my_scheduled = 0;
            std::uint64_t my_violations = 0, my_failed = 0;
            std::uint64_t my_max_lag = 0, my_vt = 0;
            sync.arrive_and_wait();
            std::uint64_t ts, lp;
            while (!stop.load(std::memory_order_relaxed)) {
                bool ok;
                {
                    stats::op_sample sample{params.latency, t,
                                            stats::op_kind::delete_min};
                    ok = h.try_delete_min(ts, lp);
                    if (ok)
                        sample.commit();
                }
                if (!ok) {
                    ++my_failed;
                    // The population is constant, so a failed pop means
                    // events are sitting in handle buffers; publish ours
                    // so the simulation cannot wedge.
                    h.flush();
                    continue;
                }
                // Commit: check causality against the LP's clock, then
                // advance it to this event's timestamp.
                auto &clock = clocks[lp % params.lps];
                std::uint64_t seen = clock.load(std::memory_order_acquire);
                const std::uint64_t lag = seen > ts ? seen - ts : 0;
                if (lag > params.lookahead) {
                    ++my_violations;
                    my_max_lag =
                        std::max(my_max_lag, lag - params.lookahead);
                }
                while (seen < ts &&
                       !clock.compare_exchange_weak(
                           seen, ts, std::memory_order_acq_rel))
                    ;
                my_vt = std::max(my_vt, ts);
                ++my_committed;
                KLSM_TRACE_EVENT(trace::kind::des_commit, lp, lag);
                const std::uint64_t done =
                    committed.fetch_add(1, std::memory_order_relaxed) + 1;
                if (done >= params.target_events) {
                    stop.store(true, std::memory_order_relaxed);
                    break;
                }
                // Self-message: one successor keeps the population
                // constant.  Every increment is at least lookahead+1,
                // which is what makes `lookahead` the model's true
                // causality tolerance.
                const std::uint64_t next_ts =
                    ts + params.lookahead + 1 +
                    rng.bounded(2 * params.mean_delay + 1);
                {
                    stats::op_sample sample{params.latency, t,
                                            stats::op_kind::insert};
                    h.insert(next_ts, rng.bounded(params.lps));
                    sample.commit();
                }
                ++my_scheduled;
                if (prog != nullptr)
                    prog->publish(t, my_committed + my_scheduled,
                                  my_failed);
            }
            h.flush();
            // `committed` is already global (the stop check needs it
            // live); merge the rest of the thread-local tallies.
            scheduled.fetch_add(my_scheduled);
            violations.fetch_add(my_violations);
            failed.fetch_add(my_failed);
            std::uint64_t cur = max_lag.load(std::memory_order_relaxed);
            while (my_max_lag > cur &&
                   !max_lag.compare_exchange_weak(cur, my_max_lag))
                ;
            cur = virtual_time.load(std::memory_order_relaxed);
            while (my_vt > cur &&
                   !virtual_time.compare_exchange_weak(cur, my_vt))
                ;
        });
    }

    timer.reset();
    sync.arrive_and_wait();
    for (auto &th : pool)
        th.join();

    des_result out;
    out.elapsed_s = timer.elapsed_s();
    out.committed = committed.load();
    out.scheduled = scheduled.load();
    out.violations = violations.load();
    out.max_lag = max_lag.load();
    out.virtual_time = virtual_time.load();
    out.failed_pops = failed.load();
    out.pin_failures = pin_failures.load();
    return out;
}

} // namespace klsm::workloads
