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
#include <utility>
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
#include "klsm/pq_concept.hpp"
#include "mm/alloc_stats.hpp"
#include "mm/placement.hpp"
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

/// The placement the k-LSM structures use: the configured reclamation
/// tier.
inline klsm::mm::mem_placement family_placement(const core_config &cfg) {
    return {cfg.reclaim};
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
    } else {
        std::cerr << "unknown structure: " << name
                  << " (expected klsm, dlsm, multiqueue, linden, "
                     "spraylist, heap, centralized, or hybrid)\n";
        return false;
    }
    return true;
}

/// Resolve a pinning-policy name against the live machine topology;
/// empty order means "do not pin".
std::vector<std::uint32_t> pin_order(const std::string &policy);

/// The fields of the `memory` object attach_memory writes
/// (mm::memory_json).
inline std::string memory_schema() {
    std::string s;
    for (const char *pool : {"items", "dist_blocks", "shared_blocks"})
        s += prefixed(
            std::string("pools.") + pool + ".",
            "chunks:count:chunks bytes:count:B reuse_hits:count:allocs "
            "fresh_allocs:count:allocs reuse_hit_rate:ratio "
            "growth_beyond_bound:count:chunks "
            "page_aligned_chunks:count:chunks reclaimed_chunks:count:chunks "
            "released_bytes:count:B shrink_events:count:shrinks "
            "reactivated_chunks:count:chunks");
    return s;
}

/// Attach the `memory` telemetry object to a record when --alloc-stats
/// is on and the structure exposes pool telemetry (the k-LSM family).
template <typename PQ>
void attach_memory(klsm::json_record &rec, PQ &q,
                   const core_config &cfg) {
    if (!cfg.alloc_stats)
        return;
    if constexpr (klsm::pool_backed<PQ>)
        rec.set_raw("memory", klsm::mm::memory_json(q.memory_stats()));
}

/// One record's metrics-sampling machinery (src/trace/): the progress
/// slots the harness workers publish into, the ticker-driven sampler,
/// and — for k-LSM-family runs — a contention monitor attached for the
/// record's duration.  Construct, wire(q), point the harness params at
/// progress(), run between start() and finish(rec, label).
///
/// Every probe reads only concurrent-safe state (relaxed atomics,
/// monitor totals, memory_stats counters), so the
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
        }
        if constexpr (klsm::pool_backed<PQ>) {
            const auto pools = [&q] {
                const klsm::mm::memory_stats m = q.memory_stats();
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
        using window = klsm::adapt::contention_window;
        const std::pair<const char *, std::uint64_t window::*> columns[] = {
            {"publishes", &window::publishes},
            {"publish_retries", &window::publish_retries},
            {"shared_hits", &window::shared_hits},
            {"local_hits", &window::local_hits},
            {"spies", &window::spies}};
        for (const auto &column : columns)
            sampler_.add_counter(column.first, [m = monitor_.get(),
                                                f = column.second] {
                return static_cast<double>(m->totals().*f);
            });
    }

    bool enabled_;
    bool trace_;
    klsm::trace::progress_counters progress_;
    klsm::trace::metrics_sampler sampler_;
    std::unique_ptr<klsm::adapt::contention_monitor> monitor_;
    std::function<void()> detach_;
};

/// Open a record with the header every workload writes first: the
/// workload, structure, pin policy and thread count it measured (the
/// key compare_bench matches records on).
inline klsm::json_record &open_record(klsm::json_reporter &json,
                                      const std::string &workload,
                                      const std::string &structure,
                                      const std::string &pin,
                                      unsigned threads) {
    auto &rec = json.add_record();
    rec.set("workload", workload);
    rec.set("structure", structure);
    rec.set("pin", pin);
    rec.set("threads", threads);
    return rec;
}

/// The fields the op-mix workloads (throughput, churn, service) write.
inline constexpr const char *op_mix_schema =
    "prefill:count:items ops:count:ops inserts:count:ops deletes:count:ops "
    "failed_deletes:count:ops pin_failures:count:threads elapsed_s:number:s "
    "ops_per_sec:number:ops/s ";

/// The fields open_record writes.
inline constexpr const char *record_header_schema =
    "workload:string structure:string pin:string threads:count:threads ";

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
/// and handle knobs, allocation, tracing, output) under the "core"
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

/// The fields annotate_core_meta writes.
inline constexpr const char *core_meta_schema =
    "benchmark:string k:count:items trace:bool metrics_interval_ms:number:ms "
    "mq_stickiness:count:ops mq_buffer:count:items insert_buffer:count:items "
    "seed:count smoke:bool latency_sample:count:ops alloc_stats:bool "
    "reclaim:enum=none|full reclaim_period:count:ops "
    "reclaim_grace:count:inspections topology_source:enum=sysfs|fallback "
    "cpus:count packages:count numa_nodes:count cores:count smt:bool";

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
