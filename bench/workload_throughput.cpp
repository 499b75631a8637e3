// The `throughput` workload registrant: the paper's 50/50
// insert/delete-min mix (Section 6, Figure 3) behind the workload
// registry.

#include <memory>

#include "bench_common.hpp"
#include "harness/throughput.hpp"
#include "stats/latency_report.hpp"

namespace klsm::bench {
namespace {

struct throughput_config {
    double duration_s = 0.1;
    static constexpr unsigned insert_percent = 50; ///< the paper's mix
};

int run(const throughput_config &w, const core_config &cfg,
        klsm::json_reporter &json) {
    klsm::table_reporter report({"structure", "pin", "threads", "prefill",
                                 "ops/s", "ops/thread/s", "failed_dels"},
                                table_stream(cfg));
    for (const auto &pin : cfg.pins) {
        const auto cpus = pin_order(pin);
        for (const auto threads_i : cfg.threads_list) {
            const auto threads = static_cast<unsigned>(threads_i);
            for (const auto &name : cfg.structures) {
                const bool ok = with_structure<bench_key, bench_val>(
                    name, threads, cfg.k, cfg,
                    [&](auto &q) {
                        klsm::prefill_queue(q, cfg.prefill, cfg.seed);
                        klsm::throughput_params params;
                        params.prefill = cfg.prefill;
                        params.threads = threads;
                        params.duration_s = w.duration_s;
                        params.insert_percent = w.insert_percent;
                        params.seed = cfg.seed;
                        params.pin_cpus = cpus;
                        klsm::stats::latency_recorder_set recs{
                            threads, cfg.latency_sample};
                        params.latency = &recs;
                        record_sampling sampling{cfg, threads,
                                                 w.duration_s};
                        sampling.wire(q);
                        params.progress = sampling.progress();
                        KLSM_TRACE_SPAN(rec_span,
                                        klsm::trace::kind::bench_record);
                        rec_span.arg(
                            klsm::trace::clamp16(g_record_index++));
                        sampling.start();
                        const auto res = klsm::run_throughput(q, params);
                        report.row(name, pin, threads, cfg.prefill,
                                   res.ops_per_sec(),
                                   res.ops_per_thread_per_sec(threads),
                                   res.failed_deletes);
                        auto &rec = open_record(json, "throughput", name,
                                                pin, threads);
                        rec.set("prefill", cfg.prefill);
                        rec.set("ops", res.total_ops);
                        rec.set("inserts", res.inserts);
                        rec.set("deletes", res.deletes);
                        rec.set("failed_deletes", res.failed_deletes);
                        rec.set("pin_failures", res.pin_failures);
                        rec.set("elapsed_s", res.elapsed_s);
                        rec.set("ops_per_sec", res.ops_per_sec());
                        if (recs.enabled())
                            rec.set_raw("latency",
                                        klsm::stats::latency_json(recs));
                        sampling.finish(rec,
                                        record_label(name, pin, threads));
                        attach_memory(rec, q, cfg);
                    });
                if (!ok)
                    return 2;
            }
        }
    }
    return 0;
}

} // namespace

workload_entry throughput_workload() {
    auto w = std::make_shared<throughput_config>();
    workload_entry e;
    e.name = "throughput";
    e.summary = "the paper's 50/50 insert/delete-min mix (Figure 3)";
    e.gates = {
        {.path = "ops_per_sec", .unit = "ops/s", .better = "higher"}};
    e.schema = op_mix_schema;
    e.meta_schema = "insert_percent:count:% duration_s:number:s";
    e.blocks = "latency timeseries memory";
    e.register_flags = [](cli_parser &cli) {
        cli.add_flag("duration", "0.1",
                     "seconds per measurement window (the service "
                     "workload reads this too)");
    };
    e.configure = [w](const cli_parser &cli, const core_config &core) {
        w->duration_s =
            core.smoke ? 0.05 : cli.get_double("duration");
        return true;
    };
    e.annotate_meta = [w](const core_config &core,
                          klsm::json_record &meta) {
        meta.set("insert_percent", w->insert_percent);
        meta.set("duration_s", w->duration_s);
        (void)core;
    };
    e.run = [w](const core_config &core, klsm::json_reporter &json) {
        return run(*w, core, json);
    };
    return e;
}

} // namespace klsm::bench
