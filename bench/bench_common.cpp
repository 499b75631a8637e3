// Definitions for the shared bench layer: trace-track globals, the
// core CLI group, and the built-in workload registry.

#include "bench_common.hpp"

#include <stdexcept>

#include "topo/pinning.hpp"
#include "topo/topology.hpp"
#include "util/thread_id.hpp"

namespace klsm::bench {

std::vector<klsm::trace::counter_series> g_counter_tracks;
std::uint32_t g_record_index = 0;

std::optional<double> parse_interval_ms(const std::string &text) {
    if (text.empty())
        return 0.0;
    std::string num = text;
    double scale = 1.0;
    const auto strip = [&num](const char *suffix) {
        const std::size_t n = std::char_traits<char>::length(suffix);
        if (num.size() > n &&
            num.compare(num.size() - n, n, suffix) == 0) {
            num.resize(num.size() - n);
            return true;
        }
        return false;
    };
    if (strip("ms"))
        scale = 1.0;
    else if (strip("us"))
        scale = 1e-3;
    else if (strip("s"))
        scale = 1e3;
    try {
        std::size_t pos = 0;
        const double v = std::stod(num, &pos);
        if (pos != num.size() || !(v >= 0))
            return std::nullopt;
        return v * scale;
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

std::vector<std::uint32_t> pin_order(const std::string &policy) {
    const auto order =
        klsm::topo::cpu_order(klsm::topo::topology::system(), policy);
    return order ? *order : std::vector<std::uint32_t>{};
}

std::string record_label(const std::string &name, const std::string &pin,
                         unsigned threads) {
    return name + "/" + pin + "/t" + std::to_string(threads);
}

void register_core_flags(cli_parser &cli,
                         const workload_registry &registry) {
    cli.begin_group("core");
    cli.add_flag("workload", "throughput",
                 "workload(s), comma-separable: " +
                     registry.names_joined());
    cli.add_flag("structure", "klsm",
                 "comma-separated: klsm,dlsm,multiqueue,linden,"
                 "spraylist,heap,centralized,hybrid");
    cli.add_flag("pin", "none",
                 "comma-separated pinning policies: none,compact,"
                 "scatter");
    cli.add_flag("threads", "4", "comma-separated thread counts");
    cli.add_flag("k", "256", "k-LSM relaxation parameter");
    cli.add_flag("mq-stickiness", "8",
                 "multiqueue: handle queue accesses between resamples "
                 "(1 = classic two-choice resampling every access)");
    cli.add_flag("mq-buffer", "16",
                 "multiqueue: per-handle insertion/deletion buffer "
                 "capacity (0 = unbuffered handles)");
    cli.add_flag("insert-buffer", "0",
                 "klsm: per-thread handle insert-buffer depth; staged "
                 "inserts flush into the DistLSM as one pre-sorted "
                 "block (0 = off, the paper's immediate visibility)");
    cli.add_flag("prefill", "100000", "keys inserted before timing");
    cli.add_flag("seed", "1", "base RNG seed");
    cli.add_flag("latency-sample", "0",
                 "per-op latency sampling stride: 0 = off, 1 = every "
                 "op, N = every Nth op (--smoke raises 0 to 4)");
    cli.add_bool_flag("alloc-stats", false,
                      "emit a `memory` allocation-telemetry object per "
                      "record (chunks/bytes/reuse per pool)");
    cli.add_flag("reclaim", "auto",
                 "pool reclamation tier for the k-LSM family: auto "
                 "(full for churn, none otherwise) | none | freelist "
                 "(cross-thread recycling) | shrink (return cold "
                 "chunks to the OS) | full (both)");
    cli.add_bool_flag("trace", false,
                      "arm the runtime tracer (src/trace/): per-thread "
                      "event rings drained at exit to --trace-out as "
                      "Chrome-trace JSON (chrome://tracing / Perfetto)");
    cli.add_flag("trace-out", "trace.json",
                 "where --trace writes the Chrome-trace JSON");
    cli.add_flag("metrics-interval", "",
                 "in-run metrics sampling period, e.g. 50ms, 0.5s "
                 "(bare numbers are milliseconds; empty or 0 = off): "
                 "each record gains a `timeseries` block, and traces "
                 "gain counter tracks");
    cli.add_bool_flag("smoke", false,
                      "tiny parameters, all checks on: the CI smoke mode");
    cli.add_flag("json-out", "",
                 "write the JSON report here ('-' for stdout)");
}

bool parse_core_config(const cli_parser &cli,
                       const std::vector<const workload_entry *> &selected,
                       core_config &cfg) {
    cfg.structures = cli.get_list("structure");
    cfg.pins = cli.get_list("pin");
    cfg.threads_list = cli.get_int_list("threads");
    cfg.k = static_cast<std::size_t>(cli.get_uint64("k"));
    cfg.mq_stickiness =
        static_cast<std::size_t>(cli.get_uint64("mq-stickiness"));
    cfg.mq_buffer = static_cast<std::size_t>(cli.get_uint64("mq-buffer"));
    cfg.insert_buffer =
        static_cast<std::size_t>(cli.get_uint64("insert-buffer"));
    if (cfg.mq_stickiness == 0) {
        std::cerr << "--mq-stickiness must be positive\n";
        return false;
    }
    cfg.prefill = static_cast<std::size_t>(cli.get_uint64("prefill"));
    cfg.seed = cli.get_uint64("seed");
    cfg.latency_sample = cli.get_uint64("latency-sample");
    cfg.alloc_stats = cli.get_bool("alloc-stats");
    if (cli.get("reclaim") == "auto") {
        // Reclamation soaks (churn) exercise the full tier by default;
        // everywhere else the tier defaults off so perf baselines keep
        // their exact pre-reclaim allocation behavior.  The workloads
        // themselves declare which side they are on (reclaim_soak).
        const bool all_soak =
            !selected.empty() &&
            std::all_of(selected.begin(), selected.end(),
                        [](const workload_entry *e) {
                            return e->reclaim_soak;
                        });
        cfg.reclaim.policy = all_soak ? klsm::mm::reclaim_policy::full
                                      : klsm::mm::reclaim_policy::none;
    } else {
        klsm::mm::reclaim_policy rp;
        if (!klsm::mm::reclaim::parse_reclaim_policy(
                cli.get("reclaim").c_str(), rp)) {
            std::cerr << "unknown --reclaim policy: " << cli.get("reclaim")
                      << " (expected auto, none, freelist, shrink, or "
                         "full)\n";
            return false;
        }
        cfg.reclaim.policy = rp;
    }
    cfg.smoke = cli.get_bool("smoke");
    cfg.json_to_stdout = cli.get("json-out") == "-";
    cfg.trace = cli.get_bool("trace");
    cfg.trace_out = cli.get("trace-out");
    if (cfg.trace && cfg.trace_out.empty()) {
        std::cerr << "--trace-out must name a file when --trace is on\n";
        return false;
    }
    const auto metrics_ms =
        parse_interval_ms(cli.get("metrics-interval"));
    if (!metrics_ms) {
        std::cerr << "--metrics-interval: cannot parse '"
                  << cli.get("metrics-interval")
                  << "' (expected e.g. 50ms, 0.5s, or a bare "
                     "millisecond count)\n";
        return false;
    }
    cfg.metrics_interval_ms = *metrics_ms;

    for (const auto &pin : cfg.pins) {
        if (!klsm::topo::parse_pin_policy(pin)) {
            std::cerr << "unknown pin policy: " << pin
                      << " (expected none, compact, or scatter)\n";
            return false;
        }
    }
    for (const auto t : cfg.threads_list) {
        if (t < 1) {
            std::cerr << "--threads: " << t << " must be at least 1\n";
            return false;
        }
        try {
            // Same check the harnesses apply, surfaced as a CLI error
            // instead of an exception mid-benchmark.  Clamp before the
            // narrowing cast: a value above UINT32_MAX must reach the
            // check as "too large", not wrap to a small count.
            klsm::check_thread_capacity(static_cast<unsigned>(
                std::min<std::int64_t>(t, 0xffffffffLL)));
        } catch (const std::invalid_argument &e) {
            std::cerr << "--threads: " << e.what() << "\n";
            return false;
        }
    }

    if (cfg.smoke) {
        // Small enough for a sanitizer build on a one-core CI runner,
        // large enough to exercise merges, spills, and spying.  The
        // workload-owned fields shrink in each workload's configure().
        cfg.prefill = 2000;
        if (cfg.threads_list.size() > 2)
            cfg.threads_list.resize(2);
        for (auto &t : cfg.threads_list)
            t = std::min<std::int64_t>(t, 4);
        // Smoke doubles as the CI perf probe: latency capture is on by
        // default so every smoke JSON carries a `latency` object.
        if (cfg.latency_sample == 0)
            cfg.latency_sample = 4;
    }
    return true;
}

void annotate_core_meta(const core_config &cfg, json_reporter &json) {
    json.meta().set("k", cfg.k);
    json.meta().set("trace", cfg.trace);
    json.meta().set("metrics_interval_ms", cfg.metrics_interval_ms);
    json.meta().set("mq_stickiness", cfg.mq_stickiness);
    json.meta().set("mq_buffer", cfg.mq_buffer);
    json.meta().set("insert_buffer", cfg.insert_buffer);
    json.meta().set("seed", cfg.seed);
    json.meta().set("smoke", cfg.smoke);
    json.meta().set("latency_sample", cfg.latency_sample);
    json.meta().set("alloc_stats", cfg.alloc_stats);
    json.meta().set("reclaim",
                    klsm::mm::reclaim::reclaim_policy_name(
                        cfg.reclaim.policy));
    json.meta().set("reclaim_period", cfg.reclaim.maintenance_period);
    json.meta().set("reclaim_grace", cfg.reclaim.grace_inspections);
    // The discovered machine layout: without it, cross-machine JSON
    // reports are not comparable (arXiv:1603.05047's central lesson).
    const auto &sys = klsm::topo::topology::system();
    json.meta().set("topology_source",
                    sys.from_sysfs() ? "sysfs" : "fallback");
    json.meta().set("cpus", sys.num_cpus());
    json.meta().set("packages", sys.num_packages());
    json.meta().set("numa_nodes", sys.num_nodes());
    json.meta().set("cores", sys.num_cores());
    json.meta().set("smt", sys.smt());
}

void register_builtin_workloads(workload_registry &registry) {
    registry.add(throughput_workload());
    registry.add(quality_workload());
    registry.add(sssp_workload());
    registry.add(service_workload());
    registry.add(churn_workload());
    registry.add(bnb_workload());
    registry.add(des_workload());
}

} // namespace klsm::bench
