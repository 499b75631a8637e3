#pragma once

// Contention telemetry for the k-LSM: how the shared component is used.
//
// Every DistLSM spill publishes a new block array through one CAS, so
// contention on the shared component shows up as failed publish CASes,
// and the shared/local delete-hit mix shows how often deletes need the
// shared component at all.  This monitor counts exactly those events,
// cheaply enough to stay on the hot paths, for the metrics sampler's
// timeseries (bench/bench_common.hpp) and the ledger's per-layer
// metrics:
//
//   * each thread owns one cache-line-aligned counter slot (the
//     src/stats/ recorder-slot pattern): increments touch only the
//     owner's line, through relaxed atomics so a concurrent reader is
//     race-free but pays nothing for coherence on the write path;
//   * totals() merges all slots at any time; a single sampling thread
//     may also call sample_window(), which diffs the merge against the
//     previous one and folds the window's failed-CAS rate and
//     shared/local delete-hit mix into EWMAs.
//
// The monitor is passive: it never touches the queue.  Attachment is a
// relaxed atomic pointer inside the queue (k_lsm::set_monitor), so the
// un-instrumented hot path pays one predictable branch.  One monitor
// may be attached to several queues (every numa_klsm shard): count()
// only touches the calling thread's slot, so it sums their events.

#include <atomic>
#include <cstdint>

#include "util/align.hpp"
#include "util/thread_id.hpp"

namespace klsm {
namespace adapt {

/// The contention events the queue reports.  Kept as an enum so the
/// record path indexes an array.
enum class event : unsigned {
    /// shared_lsm::insert published its snapshot (CAS succeeded).
    shared_publish = 0,
    /// shared_lsm::insert lost the publish CAS and rebuilt (the primary
    /// contention signal: another thread won the serialization point).
    shared_publish_retry,
    /// try_delete_min took its item from the shared component.
    delete_hit_shared,
    /// try_delete_min took its item from the caller's own DistLSM.
    delete_hit_local,
    /// A spy copied items out of another thread's DistLSM (both own
    /// components observed empty).
    spy,
    /// shared_lsm published a big merge it settled off the publish path.
    shared_settle,
    /// A settled merge was discarded: an input left the shared array
    /// first.
    shared_settle_discard,
};
inline constexpr unsigned event_kinds = 7;

/// One sampling window's view of the queue: raw per-event deltas since
/// the previous sample_window() call plus the monitor's EWMAs after
/// folding this window in.  Plain data so tests can script synthetic
/// windows without a live queue.
struct contention_window {
    std::uint64_t publishes = 0;
    std::uint64_t publish_retries = 0;
    std::uint64_t shared_hits = 0;
    std::uint64_t local_hits = 0;
    std::uint64_t spies = 0;
    /// Settles follow a publish and are not publish attempts: they stay
    /// out of fail_rate() and idle().
    std::uint64_t settles = 0;
    std::uint64_t settle_discards = 0;

    /// EWMA of the failed-publish-CAS rate; NaN-free (0 before the
    /// first window with publish activity).
    double fail_rate_ewma = 0.0;
    /// EWMA of the fraction of successful deletes served by the shared
    /// component.
    double shared_fraction_ewma = 0.0;

    std::uint64_t publish_attempts() const {
        return publishes + publish_retries;
    }
    double fail_rate() const {
        const std::uint64_t a = publish_attempts();
        return a ? static_cast<double>(publish_retries) /
                       static_cast<double>(a)
                 : 0.0;
    }
    double shared_fraction() const {
        const std::uint64_t h = shared_hits + local_hits;
        return h ? static_cast<double>(shared_hits) /
                       static_cast<double>(h)
                 : 0.0;
    }
    /// True when the window saw no activity at all (idle queue): the
    /// EWMAs were carried over, not updated.
    bool idle() const {
        return publish_attempts() == 0 && shared_hits + local_hits == 0 &&
               spies == 0;
    }
};

class contention_monitor {
public:
    /// `ewma_alpha` is the weight of the newest window when folding
    /// rates into the EWMAs (higher = more reactive).
    explicit contention_monitor(double ewma_alpha = 0.25)
        : alpha_(ewma_alpha) {}

    contention_monitor(const contention_monitor &) = delete;
    contention_monitor &operator=(const contention_monitor &) = delete;

    /// Hot path: bump the calling thread's counter for `e`.  Owner-only
    /// writes through relaxed atomics: no RMW, no shared lines.
    void count(event e) {
        std::atomic<std::uint64_t> &c =
            slots_[thread_index()].counts[static_cast<unsigned>(e)];
        c.store(c.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    }

    /// Sampler-only: merge all slots, return the deltas since the last
    /// call, and fold the window into the EWMAs.  Not thread-safe
    /// against itself — one sampling thread per monitor.
    contention_window sample_window() {
        std::uint64_t totals[event_kinds];
        merge(totals);
        contention_window w;
        w.publishes = totals[idx(event::shared_publish)] -
                      last_[idx(event::shared_publish)];
        w.publish_retries = totals[idx(event::shared_publish_retry)] -
                            last_[idx(event::shared_publish_retry)];
        w.shared_hits = totals[idx(event::delete_hit_shared)] -
                        last_[idx(event::delete_hit_shared)];
        w.local_hits = totals[idx(event::delete_hit_local)] -
                       last_[idx(event::delete_hit_local)];
        w.spies = totals[idx(event::spy)] - last_[idx(event::spy)];
        w.settles = totals[idx(event::shared_settle)] -
                    last_[idx(event::shared_settle)];
        w.settle_discards = totals[idx(event::shared_settle_discard)] -
                            last_[idx(event::shared_settle_discard)];
        for (unsigned i = 0; i < event_kinds; ++i)
            last_[i] = totals[i];

        // Fold rates into the EWMAs on any active window; a fully idle
        // window must not decay a real contention reading into a
        // phantom "all quiet".  An *active* window without publish
        // attempts counts as fail-rate evidence of 0 — on a
        // delete-heavy phase publishes stop entirely, and freezing the
        // EWMA there would show the contended phase's rate forever.
        if (!w.idle())
            fail_rate_ewma_ =
                alpha_ * w.fail_rate() + (1.0 - alpha_) * fail_rate_ewma_;
        if (w.shared_hits + w.local_hits > 0)
            shared_fraction_ewma_ = alpha_ * w.shared_fraction() +
                                    (1.0 - alpha_) * shared_fraction_ewma_;
        w.fail_rate_ewma = fail_rate_ewma_;
        w.shared_fraction_ewma = shared_fraction_ewma_;
        return w;
    }

    /// Cumulative totals since construction (diagnostics / JSON).
    /// Safe to call concurrently with count(); the EWMA fields carry
    /// the sampler's latest fold.
    contention_window totals() const {
        std::uint64_t t[event_kinds];
        merge(t);
        contention_window w;
        w.publishes = t[idx(event::shared_publish)];
        w.publish_retries = t[idx(event::shared_publish_retry)];
        w.shared_hits = t[idx(event::delete_hit_shared)];
        w.local_hits = t[idx(event::delete_hit_local)];
        w.spies = t[idx(event::spy)];
        w.settles = t[idx(event::shared_settle)];
        w.settle_discards = t[idx(event::shared_settle_discard)];
        w.fail_rate_ewma = fail_rate_ewma_;
        w.shared_fraction_ewma = shared_fraction_ewma_;
        return w;
    }

private:
    static constexpr unsigned idx(event e) {
        return static_cast<unsigned>(e);
    }

    /// One thread's private counters, padded so adjacent slots never
    /// share a cache line (seven 8-byte counters fit in one line).
    struct alignas(cache_line_size) slot {
        std::atomic<std::uint64_t> counts[event_kinds] = {};
    };

    void merge(std::uint64_t (&totals)[event_kinds]) const {
        for (unsigned i = 0; i < event_kinds; ++i)
            totals[i] = 0;
        for (const slot &s : slots_)
            for (unsigned i = 0; i < event_kinds; ++i)
                totals[i] += s.counts[i].load(std::memory_order_relaxed);
    }

    slot slots_[max_registered_threads];
    const double alpha_;
    // Sampler-only state: snapshot of the previous merge and the EWMAs.
    std::uint64_t last_[event_kinds] = {};
    double fail_rate_ewma_ = 0.0;
    double shared_fraction_ewma_ = 0.0;
};

} // namespace adapt
} // namespace klsm
