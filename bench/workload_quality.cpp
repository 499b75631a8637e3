// The `quality` workload registrant: delete-min rank error vs an exact
// mirror, with the rho bound check (Lemma 2 and the buffered/NUMA
// extensions).

#include <memory>

#include "bench_common.hpp"
#include "harness/quality.hpp"
#include "stats/latency_report.hpp"

namespace klsm::bench {
namespace {

struct quality_config {
    std::uint64_t ops_per_thread = 20000;
};

int run(const quality_config &w, const core_config &cfg,
        klsm::json_reporter &json) {
    klsm::table_reporter report({"structure", "pin", "threads", "deletes",
                                 "mean_rank", "max_rank", "bound"},
                                table_stream(cfg));
    int status = 0;
    for (const auto &pin : cfg.pins) {
        const auto cpus = pin_order(pin);
        for (const auto threads_i : cfg.threads_list) {
            const auto threads = static_cast<unsigned>(threads_i);
            for (const auto &name : cfg.structures) {
                const bool ok = with_structure<bench_key, bench_val>(
                    name, threads, cfg.k, cfg,
                    [&](auto &q) {
                        klsm::quality_params params;
                        params.threads = threads;
                        params.prefill = cfg.prefill;
                        params.ops_per_thread = w.ops_per_thread;
                        params.seed = cfg.seed;
                        params.pin_cpus = cpus;
                        klsm::stats::latency_recorder_set recs{
                            threads, cfg.latency_sample};
                        params.latency = &recs;
                        record_sampling sampling{cfg, threads,
                                                 /*duration_hint_s=*/0};
                        sampling.wire(q);
                        params.progress = sampling.progress();
                        // Quality-only probes: the sampled online rank
                        // accumulator makes rank error observable *while*
                        // the run moves.
                        klsm::online_rank_stats online_rank;
                        if (sampling.enabled()) {
                            params.online_rank = &online_rank;
                            sampling.sampler().add_counter(
                                "rank_samples", [&online_rank] {
                                    return static_cast<double>(
                                        online_rank.samples.load(
                                            std::memory_order_relaxed));
                                });
                            sampling.sampler().add_gauge(
                                "rank_mean", [&online_rank] {
                                    return online_rank.mean();
                                });
                            sampling.sampler().add_gauge(
                                "rank_max", [&online_rank] {
                                    return static_cast<double>(
                                        online_rank.rank_max.load(
                                            std::memory_order_relaxed));
                                });
                        }
                        KLSM_TRACE_SPAN(rec_span,
                                        klsm::trace::kind::bench_record);
                        rec_span.arg(
                            klsm::trace::clamp16(g_record_index++));
                        sampling.start();
                        const auto res = klsm::measure_rank_error(q, params);
                        // Lemma 2: the k-LSM guarantees at most T*k
                        // smaller keys are skipped, a hard bound.  The
                        // relaxed comparators offer no bound at all.
                        const bool has_rho = name == "klsm";
                        // Buffered handles hide up to buffer_total items
                        // per worker; the extended rho (quality.hpp)
                        // charges T * max_buffer_depth_seen() on top of
                        // Lemma 2's relaxation term.
                        std::uint64_t buffer_total = 0;
                        if constexpr (klsm::dynamic_buffering<
                                          std::remove_reference_t<
                                              decltype(q)>>)
                            buffer_total = q.max_buffer_depth_seen();
                        const std::uint64_t rho = klsm::rank_error_bound(
                            threads, cfg.k, buffer_total);
                        std::string bound_cell = "none";
                        if (has_rho)
                            bound_cell = "rho=" + std::to_string(rho);
                        report.row(name, pin, threads, res.deletes,
                                   res.mean_rank(), res.rank_max,
                                   bound_cell);
                        auto &rec = open_record(json, "quality", name,
                                                pin, threads);
                        rec.set("deletes", res.deletes);
                        rec.set("mean_rank", res.mean_rank());
                        rec.set("max_rank", res.rank_max);
                        rec.set("pin_failures", res.pin_failures);
                        if (recs.enabled())
                            rec.set_raw("latency",
                                        klsm::stats::latency_json(recs));
                        sampling.finish(rec,
                                        record_label(name, pin, threads));
                        attach_memory(rec, q, cfg);
                        if (has_rho) {
                            rec.set("rho", rho);
                            rec.set("rho_hard", true);
                            rec.set("buffer_total", buffer_total);
                            if (res.rank_max > rho) {
                                std::cerr << "BOUND VIOLATION: " << name
                                          << " k=" << cfg.k
                                          << " max rank " << res.rank_max
                                          << " > " << rho << "\n";
                                status = 1;
                            }
                        }
                    });
                if (!ok)
                    return 2;
            }
        }
    }
    return status;
}

} // namespace

workload_entry quality_workload() {
    auto w = std::make_shared<quality_config>();
    workload_entry e;
    e.name = "quality";
    e.summary = "delete-min rank error vs an exact mirror, rho-checked";
    // Rank error is reported, not gated; rho bounds max_rank.
    e.gates = {
        {.path = "mean_rank",
         .unit = "rank",
         .better = "lower",
         .tolerance = "advisory"},
        {.path = "max_rank",
         .unit = "rank",
         .better = "lower",
         .tolerance = "advisory",
         .context = {"rho", "buffer_total"}},
    };
    // rho, rho_hard and buffer_total: klsm records only.
    e.schema = "deletes:count:ops mean_rank:number:rank max_rank:count:rank "
               "pin_failures:count:threads rho?:count:rank rho_hard?:bool "
               "buffer_total?:count:items";
    e.meta_schema = "prefill:count:items ops_per_thread:count:ops";
    e.blocks = "latency timeseries memory";
    e.register_flags = [](cli_parser &cli) {
        cli.add_flag("ops", "20000", "operations per thread");
    };
    e.configure = [w](const cli_parser &cli, const core_config &core) {
        w->ops_per_thread = core.smoke ? 2000 : cli.get_uint64("ops");
        return true;
    };
    e.annotate_meta = [w](const core_config &core,
                          klsm::json_record &meta) {
        meta.set("prefill", core.prefill);
        meta.set("ops_per_thread", w->ops_per_thread);
    };
    e.run = [w](const core_config &core, klsm::json_reporter &json) {
        return run(*w, core, json);
    };
    return e;
}

} // namespace klsm::bench
