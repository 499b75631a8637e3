#pragma once

// The open-loop service harness: each worker follows a precomputed
// arrival schedule (arrival_schedule.hpp) and executes one queue
// operation per arrival, measuring latency from the operation's
// *intended* start — the schedule entry — to its completion.
//
// Why intended-start: a closed-loop harness that stalls simply issues
// fewer operations, so the stall's victims never appear in the
// histogram (coordinated omission).  Here the arrival exists whether or
// not the system was ready; an operation issued late carries its whole
// queueing delay into the recorded latency, so stalls are *measured*,
// not hidden.  The start-to-completion (service-time) distribution is
// recorded alongside from the same operations — the gap between the
// two distributions is exactly the queueing delay.
//
// Catch-up semantics: a worker that falls behind issues overdue
// operations back-to-back (never skipping, never re-timing them).  This
// is the standard open-system model — work that arrived during a stall
// is still owed — and it is what lets `achieved_rate` fall below the
// offered rate under overload instead of silently shedding load.

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/workload.hpp"
#include "klsm/pq_concept.hpp"
#include "service/arrival_schedule.hpp"
#include "stats/latency_recorder.hpp"
#include "topo/pinning.hpp"
#include "trace/progress.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"
#include "util/thread_id.hpp"
#include "util/timer.hpp"

namespace klsm {
namespace service {

struct service_params {
    unsigned threads = 1;
    /// Producer share of the op mix (inserts); the rest are delete-mins.
    unsigned insert_percent = 50;
    std::uint64_t seed = 1;
    std::uint32_t key_range_bits = 32;
    /// Placement order from topo::cpu_order; empty = no pinning.
    std::vector<std::uint32_t> pin_cpus;
    /// Lateness at or below this is "on time" (scheduling jitter, the
    /// spin-wait's exit granularity); only ops later than this count
    /// toward late_ops / lateness stats.
    std::uint64_t late_grace_ns = 1000;
    /// Optional start-to-completion capture at the caller's stride —
    /// the generic `latency` JSON object, same as every other harness.
    /// The intended/completion recorders below are separate and always
    /// stride 1.
    stats::latency_recorder_set *latency = nullptr;
    /// Optional mid-run progress slots for the metrics sampler
    /// (src/trace/); each worker publishes its cumulative issued ops
    /// and failed (empty) delete-mins into its own slot.
    trace::progress_counters *progress = nullptr;
};

struct service_result {
    std::uint64_t scheduled_ops = 0;
    /// Always equals scheduled_ops (catch-up semantics never shed
    /// load); kept separate so the JSON states the invariant.
    std::uint64_t completed_ops = 0;
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    /// Delete-min probes that found the queue empty; they consume their
    /// arrival but are excluded from the latency distributions (the
    /// empty-probe path is not the service being measured).
    std::uint64_t failed_deletes = 0;
    std::uint64_t pin_failures = 0;
    /// Ops issued more than late_grace_ns after their intended start.
    std::uint64_t late_ops = 0;
    std::uint64_t max_lateness_ns = 0;
    std::uint64_t lateness_sum_ns = 0;
    /// Largest number of arrivals simultaneously overdue at any issue
    /// point — the deepest the backlog ever got, in ops.
    std::uint64_t backlog_max = 0;
    /// Run start to the last worker's last completion.
    double elapsed_s = 0;
    /// Arrival-to-completion per op kind, stride 1 (coordinated
    /// omission included by construction).
    stats::latency_recorder_set intended{0, 0};
    /// Start-to-completion of the same operations, stride 1.  Every
    /// sample here is pointwise <= its intended counterpart, so every
    /// percentile is too.
    stats::latency_recorder_set completion{0, 0};

    double achieved_rate() const {
        return elapsed_s > 0
                   ? static_cast<double>(completed_ops) / elapsed_s
                   : 0;
    }
    double mean_lateness_ns() const {
        return late_ops > 0
                   ? static_cast<double>(lateness_sum_ns) / late_ops
                   : 0;
    }
};

/// Run the open-loop workload on an already-prefilled queue.  The
/// schedule must have exactly params.threads streams (one per worker).
template <typename PQ>
service_result run_service(PQ &q, const service_params &params,
                           const std::vector<thread_schedule> &schedule) {
    if (schedule.size() != params.threads)
        throw std::invalid_argument(
            "service schedule has " + std::to_string(schedule.size()) +
            " streams for " + std::to_string(params.threads) + " threads");
    check_thread_capacity(params.threads);

    stats::latency_recorder_set intended{params.threads, 1};
    stats::latency_recorder_set completion{params.threads, 1};

    struct worker_tally {
        std::uint64_t inserts = 0, deletes = 0, failed = 0;
        std::uint64_t late = 0, late_sum = 0, max_late = 0;
        std::uint64_t backlog_max = 0;
        std::uint64_t end_ns = 0;
    };
    std::vector<worker_tally> tallies(params.threads);
    std::atomic<std::uint64_t> pin_failures{0};
    // The run's epoch: stamped by the barrier's completion step, which
    // runs after every thread has arrived and before any is released —
    // so all workers share one t0 with no straggler skew.
    std::atomic<std::uint64_t> t0{0};
    std::barrier sync{
        static_cast<std::ptrdiff_t>(params.threads) + 1,
        [&t0]() noexcept {
            t0.store(now_ns(), std::memory_order_release);
        }};

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
            const auto &sched = schedule[t];
            typename PQ::key_type key;
            typename PQ::value_type value{};
            auto h = pq_handle(q);
            worker_tally tally;
            sync.arrive_and_wait();
            const std::uint64_t start =
                t0.load(std::memory_order_acquire);
            std::size_t due = 0; // arrivals known overdue, for backlog
            for (std::size_t i = 0; i < sched.size(); ++i) {
                const std::uint64_t intended_ns = start + sched[i];
                std::uint64_t now = now_ns();
                if (now < intended_ns) {
                    // Ahead of schedule = quiesced: publish buffered
                    // effects before waiting, so consumers on other
                    // streams see every op this stream has completed and
                    // the SLO verdict is never computed against hidden
                    // work.  Re-read the clock — the flush may have
                    // consumed the slack.
                    h.flush();
                    now = now_ns();
                }
                if (now < intended_ns) {
                    // Sleep off all but the tail of a long wait, yield
                    // through the medium range, spin the last couple of
                    // microseconds for precision.
                    do {
                        const std::uint64_t ahead = intended_ns - now;
                        if (ahead > 200000)
                            std::this_thread::sleep_for(
                                std::chrono::nanoseconds(ahead - 100000));
                        else if (ahead > 2000)
                            std::this_thread::yield();
                        now = now_ns();
                    } while (now < intended_ns);
                } else if (now - intended_ns > params.late_grace_ns) {
                    // Behind: issue immediately (catch-up), book the
                    // lateness and how deep the overdue backlog is.
                    const std::uint64_t lateness = now - intended_ns;
                    KLSM_TRACE_EVENT(trace::kind::service_late, t,
                                     lateness);
                    ++tally.late;
                    tally.late_sum += lateness;
                    if (lateness > tally.max_late)
                        tally.max_late = lateness;
                    if (due <= i)
                        due = i + 1;
                    while (due < sched.size() &&
                           start + sched[due] <= now)
                        ++due;
                    if (due - i > tally.backlog_max)
                        tally.backlog_max = due - i;
                }
                const bool ins = mix.is_insert(rng);
                const auto kind = ins ? stats::op_kind::insert
                                      : stats::op_kind::delete_min;
                stats::op_sample sample{params.latency, t, kind};
                const std::uint64_t op_start = now_ns();
                bool served = true;
                if (ins) {
                    h.insert(
                        static_cast<typename PQ::key_type>(rng() & mask),
                        value);
                    ++tally.inserts;
                } else if (h.try_delete_min(key, value)) {
                    ++tally.deletes;
                } else {
                    served = false;
                    ++tally.failed;
                }
                if (served) {
                    const std::uint64_t end = now_ns();
                    sample.commit();
                    completion.record(t, kind, end - op_start);
                    // end >= op_start >= intended_ns, so each intended
                    // sample dominates its completion twin pointwise —
                    // the percentile ordering the schema checker
                    // enforces.
                    intended.record(t, kind, end - intended_ns);
                }
                if (params.progress != nullptr)
                    params.progress->publish(
                        t, tally.inserts + tally.deletes + tally.failed,
                        tally.failed);
            }
            h.flush(); // the run's last ops count toward its window
            tally.end_ns = now_ns();
            tallies[t] = tally;
        });
    }

    sync.arrive_and_wait(); // stamps t0 and releases the workers
    for (auto &th : ts)
        th.join();

    service_result out;
    out.scheduled_ops = scheduled_ops(schedule);
    out.pin_failures = pin_failures.load();
    const std::uint64_t start = t0.load(std::memory_order_acquire);
    std::uint64_t last_end = start;
    for (const auto &tally : tallies) {
        out.inserts += tally.inserts;
        out.deletes += tally.deletes;
        out.failed_deletes += tally.failed;
        out.late_ops += tally.late;
        out.lateness_sum_ns += tally.late_sum;
        if (tally.max_late > out.max_lateness_ns)
            out.max_lateness_ns = tally.max_late;
        if (tally.backlog_max > out.backlog_max)
            out.backlog_max = tally.backlog_max;
        if (tally.end_ns > last_end)
            last_end = tally.end_ns;
    }
    out.completed_ops =
        out.inserts + out.deletes + out.failed_deletes;
    out.elapsed_s = static_cast<double>(last_end - start) * 1e-9;
    out.intended = std::move(intended);
    out.completion = std::move(completion);
    return out;
}

} // namespace service
} // namespace klsm
