#pragma once

// Shared machinery for the klsm_bench workload registrants
// (bench/workload_*.cpp): structure construction, pinning, per-record
// metrics sampling, and the core CLI layer.
//
// The driver (klsm_bench.cpp) owns none of this — it builds the
// registry, parses flags, and dispatches; every workload-specific
// decision lives with the workload that owns it (see
// harness/workload_registry.hpp for the API contract).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adapt/contention_monitor.hpp"
#include "baselines/centralized_k.hpp"
#include "baselines/hybrid_k.hpp"
#include "baselines/linden.hpp"
#include "baselines/multiqueue.hpp"
#include "baselines/spin_heap.hpp"
#include "baselines/spraylist.hpp"
#include "harness/bench_config.hpp"
#include "harness/reporter.hpp"
#include "harness/workload_registry.hpp"
#include "klsm/k_lsm.hpp"
#include "klsm/numa_klsm.hpp"
#include "klsm/pq_concept.hpp"
#include "mm/alloc_stats.hpp"
#include "mm/placement.hpp"
#include "topo/pinning.hpp"
#include "topo/topology.hpp"
#include "trace/metrics_sampler.hpp"
#include "trace/progress.hpp"
#include "trace/tracer.hpp"
#include "util/cli.hpp"

namespace klsm::bench {

using bench_key = std::uint32_t;
using bench_val = std::uint32_t;

/// Parse a --metrics-interval value into milliseconds.  A bare number
/// is milliseconds; "us" / "ms" / "s" suffixes rescale.  Empty or zero
/// disables the sampler.  nullopt: malformed.
std::optional<double> parse_interval_ms(const std::string &text);

/// Counter tracks accumulated across every record of the run, merged
/// into the Chrome-trace export as ph:"C" series.  Track names carry
/// the record label so sweep points stay distinguishable on one
/// timeline.
extern std::vector<klsm::trace::counter_series> g_counter_tracks;

/// Dense index of the measured record currently running, carried as
/// the `bench_record` span argument so the trace timeline shows which
/// sweep point each burst of events belongs to.
extern std::uint32_t g_record_index;

/// The sampling period one record actually runs with: the requested
/// period, clamped so a duration-bounded run still yields ~16 rows
/// (smoke runs last 50 ms; a 50 ms period would sample them twice).
/// `duration_hint_s` <= 0 means the run length is op-bounded and
/// unknown, so the request stands.
inline double effective_metrics_interval_s(const core_config &cfg,
                                           double duration_hint_s) {
    double s = cfg.metrics_interval_ms / 1000.0;
    if (duration_hint_s > 0)
        s = std::min(s, duration_hint_s / 16.0);
    return std::max(s, 1e-4);
}

/// The placement the non-sharded k-LSM structures use: the configured
/// policy targeted at the constructing thread's current node (the only
/// sensible single target; numa_klsm overrides per shard).  Reclamation
/// settings ride inside the placement.
inline klsm::mm::mem_placement family_placement(const core_config &cfg) {
    return {cfg.numa_alloc,
            klsm::topo::current_node(klsm::topo::topology::system()),
            cfg.reclaim};
}

/// Construct the structure named `name` for key/value types K, V and
/// invoke `fn(queue)`.  Returns false (after printing to stderr) for an
/// unknown name so the caller can exit with a usage error.
template <typename K, typename V, typename Fn>
bool with_structure(const std::string &name, unsigned threads,
                    std::size_t k, const core_config &cfg, Fn &&fn) {
    if (name == "klsm") {
        klsm::k_lsm<K, V> q{k, {}, family_placement(cfg)};
        q.set_buffer_depth(cfg.insert_buffer);
        fn(q);
    } else if (name == "dlsm") {
        klsm::dist_pq<K, V> q{family_placement(cfg)};
        fn(q);
    } else if (name == "multiqueue") {
        klsm::multiqueue<K, V> q{threads, 2, cfg.mq_stickiness,
                                 cfg.mq_buffer};
        fn(q);
    } else if (name == "linden") {
        klsm::linden_pq<K, V> q{32};
        fn(q);
    } else if (name == "spraylist") {
        klsm::spray_pq<K, V> q{threads};
        fn(q);
    } else if (name == "heap") {
        klsm::spin_heap<K, V> q;
        fn(q);
    } else if (name == "centralized") {
        klsm::centralized_k_pq<K, V> q{k};
        fn(q);
    } else if (name == "hybrid") {
        klsm::hybrid_k_pq<K, V> q{k};
        fn(q);
    } else if (name == "numa_klsm") {
        klsm::numa_klsm<K, V> q{k, klsm::topo::topology::system(), {},
                                cfg.numa_alloc, cfg.reclaim};
        fn(q);
    } else {
        std::cerr << "unknown structure: " << name
                  << " (expected klsm, dlsm, multiqueue, linden, "
                     "spraylist, heap, centralized, hybrid, or "
                     "numa_klsm)\n";
        return false;
    }
    return true;
}

/// Resolve a pinning-policy name against the live machine topology;
/// empty order means "do not pin".
std::vector<std::uint32_t> pin_order(const std::string &policy);

/// Attach the `memory` telemetry object to a record when --alloc-stats
/// is on and the structure exposes pool telemetry (the k-LSM family).
/// Residency is queried here, after the harness joined its workers, so
/// the quiescent-only region walk is safe.
template <typename PQ>
void attach_memory(klsm::json_record &rec, PQ &q,
                   const core_config &cfg) {
    if (!cfg.alloc_stats)
        return;
    if constexpr (klsm::pool_backed<PQ>) {
        rec.set_raw("memory", klsm::mm::memory_json(q.memory_stats(true),
                                                    cfg.numa_alloc));
    }
}

/// One record's metrics-sampling machinery (src/trace/): the progress
/// slots the harness workers publish into, the ticker-driven sampler,
/// and — for k-LSM-family runs — a contention monitor attached for the
/// record's duration.  Construct, wire(q), point the harness params at
/// progress(), run between start() and finish(rec, label).
///
/// Every probe reads only concurrent-safe state (relaxed atomics,
/// monitor totals, quiescence-free memory_stats(false)), so the
/// sampler thread can run while the workers do.
class record_sampling {
public:
    record_sampling(const core_config &cfg, unsigned threads,
                    double duration_hint_s)
        : enabled_(cfg.metrics_interval_ms > 0), trace_(cfg.trace),
          progress_(threads),
          sampler_(effective_metrics_interval_s(cfg, duration_hint_s),
                   cfg.metrics_interval_ms / 1000.0) {}

    ~record_sampling() {
        if (detach_)
            detach_();
    }

    record_sampling(const record_sampling &) = delete;
    record_sampling &operator=(const record_sampling &) = delete;

    bool enabled() const { return enabled_; }
    klsm::trace::progress_counters *progress() {
        return enabled_ ? &progress_ : nullptr;
    }
    klsm::trace::metrics_sampler &sampler() { return sampler_; }

    /// Wire the probe set that makes sense for this structure:
    /// queue-agnostic op counters from the progress slots; the k-LSM
    /// family's contention hit mix from a monitor attached here; pool-size
    /// gauges where the structure exposes them.
    template <typename PQ>
    void wire(PQ &q) {
        if (!enabled_)
            return;
        sampler_.add_counter("ops", [this] {
            return static_cast<double>(progress_.total_ops());
        });
        sampler_.add_counter("failed_deletes", [this] {
            return static_cast<double>(progress_.total_failed());
        });
        if constexpr (klsm::monitorable<PQ>) {
            monitor_ =
                std::make_unique<klsm::adapt::contention_monitor>();
            q.set_monitor(monitor_.get());
            detach_ = [&q] { q.set_monitor(nullptr); };
            wire_monitor();
        } else if constexpr (klsm::sharded_monitorable<PQ>) {
            // One aggregate monitor across shards: count() only ever
            // touches the calling thread's private slot, so sharing
            // the monitor merely merges the shard mixes — which is
            // the queue-wide view the sampler wants anyway.
            monitor_ =
                std::make_unique<klsm::adapt::contention_monitor>();
            for (std::uint32_t s = 0; s < q.num_shards(); ++s)
                q.shard(s).set_monitor(monitor_.get());
            detach_ = [&q] {
                for (std::uint32_t s = 0; s < q.num_shards(); ++s)
                    q.shard(s).set_monitor(nullptr);
            };
            wire_monitor();
        }
        if constexpr (klsm::pool_backed<PQ>) {
            const auto pools = [&q] {
                const klsm::mm::memory_stats m = q.memory_stats(false);
                klsm::mm::pool_alloc_snapshot all = m.items;
                all.merge(m.dist_blocks);
                all.merge(m.shared_blocks);
                return all;
            };
            sampler_.add_gauge("pool_bytes", [pools] {
                return static_cast<double>(pools().bytes);
            });
            sampler_.add_gauge("released_bytes", [pools] {
                return static_cast<double>(pools().released_bytes);
            });
        }
    }

    void start() {
        if (enabled_)
            sampler_.start();
    }

    /// Stop sampling, detach any contention monitor, embed the
    /// `timeseries` block, and (under --trace) hand the counter
    /// tracks to the end-of-run Chrome-trace export.
    void finish(klsm::json_record &rec, const std::string &label) {
        if (!enabled_)
            return;
        sampler_.stop();
        if (detach_) {
            detach_();
            detach_ = nullptr;
        }
        rec.set_raw("timeseries", sampler_.json());
        if (trace_) {
            auto tracks = sampler_.counter_tracks();
            for (auto &cs : tracks) {
                cs.name = label + " " + cs.name;
                g_counter_tracks.push_back(std::move(cs));
            }
        }
    }

private:
    void wire_monitor() {
        auto *m = monitor_.get();
        // Fold the EWMA window once per sample row.
        sampler_.add_tick_hook([m] { m->sample_window(); });
        sampler_.add_counter("publishes", [m] {
            return static_cast<double>(m->totals().publishes);
        });
        sampler_.add_counter("publish_retries", [m] {
            return static_cast<double>(m->totals().publish_retries);
        });
        sampler_.add_counter("shared_hits", [m] {
            return static_cast<double>(m->totals().shared_hits);
        });
        sampler_.add_counter("local_hits", [m] {
            return static_cast<double>(m->totals().local_hits);
        });
        sampler_.add_counter("spies", [m] {
            return static_cast<double>(m->totals().spies);
        });
        sampler_.add_gauge("fail_rate_ewma", [m] {
            return m->totals().fail_rate_ewma;
        });
        sampler_.add_gauge("shared_fraction_ewma", [m] {
            return m->totals().shared_fraction_ewma;
        });
    }

    bool enabled_;
    bool trace_;
    klsm::trace::progress_counters progress_;
    klsm::trace::metrics_sampler sampler_;
    std::unique_ptr<klsm::adapt::contention_monitor> monitor_;
    std::function<void()> detach_;
};

/// Human-readable sweep-point label for counter-track names.
std::string record_label(const std::string &name, const std::string &pin,
                         unsigned threads);

/// The stream per-record tables go to: stderr when the JSON report
/// owns stdout.
inline std::ostream &table_stream(const core_config &cfg) {
    return cfg.json_to_stdout ? std::cerr : std::cout;
}

// --- core CLI layer (definitions in bench_common.cpp) ---------------

/// Register the cross-cutting flags (structure/pin/threads, relaxation
/// and handle knobs, placement, tracing, output) under the "core"
/// group.  The registry is consulted only to name the registered
/// workloads in --workload's help text.
void register_core_flags(cli_parser &cli,
                         const workload_registry &registry);

/// Parse and validate the core flags into `cfg` (including the --smoke
/// shrink of the shared fields).  `selected` drives the one
/// selection-dependent default: `--reclaim auto` resolves to the full
/// tier iff every selected workload declares itself a reclamation
/// soak.  Prints to stderr and returns false on a usage error.
bool parse_core_config(const cli_parser &cli,
                       const std::vector<const workload_entry *> &selected,
                       core_config &cfg);

/// Write the core meta block (knobs + discovered machine topology).
void annotate_core_meta(const core_config &cfg, json_reporter &json);

/// Build the registry of built-in workloads (bench/workload_*.cpp).
void register_builtin_workloads(workload_registry &registry);

// Entry factories, one per translation unit.
workload_entry throughput_workload();
workload_entry quality_workload();
workload_entry sssp_workload();
workload_entry churn_workload();
workload_entry service_workload();
workload_entry bnb_workload();
workload_entry des_workload();

} // namespace klsm::bench
