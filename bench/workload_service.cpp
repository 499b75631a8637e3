// The `service` workload registrant: open-loop arrival traffic
// (src/service/) with intended-start latency accounting and SLO
// verdicts.  A failed verdict is *reported* but only fails the run
// under --slo-enforce — CI judges verdicts through compare_bench
// against a baseline, where flips (pass -> fail) are what matter.

#include <memory>
#include <optional>
#include <stdexcept>

#include "bench_common.hpp"
#include "harness/throughput.hpp"
#include "service/arrival_schedule.hpp"
#include "service/open_loop.hpp"
#include "service/service_report.hpp"
#include "service/slo.hpp"
#include "stats/latency_report.hpp"

namespace klsm::bench {
namespace {

struct service_config {
    double duration_s = 0.1;
    unsigned insert_percent = 50;
    klsm::service::arrival_kind arrival =
        klsm::service::arrival_kind::poisson;
    double rate = 100000;
    double spike_frac = 0.1;
    double spike_mult = 8.0;
    double diurnal_amplitude = 0.75;
    double diurnal_periods = 1.0;
    std::uint64_t slo_p99_ns = 0; ///< 0 = no latency objective
    double slo_min_rate = 0.9;
    bool slo_enforce = false;
    bool find_sustainable = false;
};

int run(const service_config &w, const core_config &cfg,
        klsm::json_reporter &json) {
    klsm::table_reporter report(
        {"structure", "pin", "threads", "offered/s", "achieved/s",
         "intent_p99_us", "svc_p99_us", "late", "slo"},
        cfg.csv, table_stream(cfg));
    int status = 0;
    for (const auto &pin : cfg.pins) {
        const auto cpus = pin_order(pin);
        for (const auto threads_i : cfg.threads_list) {
            const auto threads = static_cast<unsigned>(threads_i);
            for (const auto &name : cfg.structures) {
                const bool ok = with_structure<bench_key, bench_val>(
                    name, threads, cfg.k, cfg,
                    [&](auto &q) {
                        klsm::prefill_queue(q, cfg.prefill, cfg.seed);
                        klsm::service::arrival_config acfg;
                        acfg.kind = w.arrival;
                        acfg.rate = w.rate;
                        acfg.duration_s = w.duration_s;
                        acfg.threads = threads;
                        acfg.seed = cfg.seed;
                        acfg.spike_fraction = w.spike_frac;
                        acfg.spike_multiplier = w.spike_mult;
                        acfg.diurnal_amplitude = w.diurnal_amplitude;
                        acfg.diurnal_periods = w.diurnal_periods;
                        const auto schedule =
                            klsm::service::make_arrival_schedule(acfg);
                        klsm::service::service_params params;
                        params.threads = threads;
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
                        const auto res =
                            klsm::service::run_service(q, params,
                                                       schedule);
                        klsm::service::slo_config slo;
                        slo.p99_ns = w.slo_p99_ns;
                        slo.min_achieved_fraction = w.slo_min_rate;
                        const auto verdict = klsm::service::evaluate_slo(
                            slo, res,
                            klsm::service::offered_rate(res, acfg));
                        // --find-sustainable: short probe runs on the
                        // same (already warm) queue, without polluting
                        // the main record's latency capture.
                        std::optional<klsm::service::sustainable_result>
                            sustainable;
                        if (w.find_sustainable) {
                            auto probe_params = params;
                            probe_params.latency = nullptr;
                            // Probe tallies restart from zero each run,
                            // which would drag the cumulative `ops`
                            // counter backwards — keep the probes out
                            // of the sampled slots.
                            probe_params.progress = nullptr;
                            sustainable =
                                klsm::service::find_sustainable_rate(
                                    [&](double rate) {
                                        auto pcfg = acfg;
                                        pcfg.rate = rate;
                                        const auto psched = klsm::
                                            service::
                                                make_arrival_schedule(
                                                    pcfg);
                                        const auto pres =
                                            klsm::service::run_service(
                                                q, probe_params, psched);
                                        return klsm::service::
                                            evaluate_slo(
                                                slo, pres,
                                                klsm::service::
                                                    offered_rate(pres,
                                                                 pcfg))
                                                .pass;
                                    },
                                    w.rate);
                        }
                        std::uint64_t svc_p99 = 0;
                        for (unsigned op = 0; op < klsm::stats::op_kinds;
                             ++op) {
                            const auto h = res.completion.merged(
                                static_cast<klsm::stats::op_kind>(op));
                            if (h.count() > 0 &&
                                h.percentile(99) > svc_p99)
                                svc_p99 = h.percentile(99);
                        }
                        report.row(
                            name, pin, threads,
                            klsm::service::offered_rate(res, acfg),
                            res.achieved_rate(),
                            verdict.observed_p99_ns / 1000.0,
                            svc_p99 / 1000.0, res.late_ops,
                            verdict.pass ? "pass" : "FAIL");
                        auto &rec = open_record(json, "service", name,
                                                pin, threads);
                        rec.set("prefill", cfg.prefill);
                        rec.set("ops", res.completed_ops);
                        rec.set("inserts", res.inserts);
                        rec.set("deletes", res.deletes);
                        rec.set("failed_deletes", res.failed_deletes);
                        rec.set("pin_failures", res.pin_failures);
                        rec.set("elapsed_s", res.elapsed_s);
                        rec.set("ops_per_sec", res.achieved_rate());
                        if (recs.enabled())
                            rec.set_raw("latency",
                                        klsm::stats::latency_json(recs));
                        sampling.finish(rec,
                                        record_label(name, pin, threads));
                        rec.set_raw("service",
                                    klsm::service::service_json(
                                        res, acfg, params));
                        rec.set_raw(
                            "slo",
                            klsm::service::slo_json(
                                verdict, slo,
                                sustainable ? &*sustainable : nullptr));
                        attach_memory(rec, q, cfg);
                        if (!verdict.pass) {
                            KLSM_TRACE_EVENT(
                                klsm::trace::kind::slo_violation, 0,
                                verdict.observed_p99_ns / 1000);
                            std::cerr
                                << (w.slo_enforce ? "SLO FAIL: "
                                                  : "slo verdict: ")
                                << name << " pin=" << pin << " t="
                                << threads << " p99="
                                << verdict.observed_p99_ns << "ns"
                                << (verdict.latency_ok ? ""
                                                       : " (> threshold)")
                                << " achieved="
                                << static_cast<std::uint64_t>(
                                       verdict.achieved_rate)
                                << "/s"
                                << (verdict.rate_ok ? ""
                                                    : " (< floor)")
                                << "\n";
                            if (w.slo_enforce)
                                status = 1;
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

workload_entry service_workload() {
    auto w = std::make_shared<service_config>();
    workload_entry e;
    e.name = "service";
    e.summary = "open-loop arrival traffic with SLO verdicts";
    // Only runs under the same arrival process compare.  The
    // intended-start distribution is the one that sees coordinated
    // omission, so it is the latency worth gating on.
    e.gates = {
        {.path = "service.achieved_rate",
         .unit = "ops/s",
         .better = "higher",
         .match = "service.arrival"},
        {.path = "service.intended",
         .unit = "ns",
         .better = "lower",
         .kind = "latency",
         .tolerance = "latency",
         .match = "service.arrival"},
        {.path = "slo.pass",
         .unit = "bool",
         .better = "higher",
         .kind = "verdict",
         .match = "service.arrival",
         .context = {"slo.observed_p99_ns", "slo.p99_threshold_ns",
                     "slo.achieved_rate", "slo.offered_rate"}},
    };
    e.register_flags = [](cli_parser &cli) {
        cli.add_flag("arrival", "poisson",
                     "arrival process: steady | poisson | spike | "
                     "diurnal");
        cli.add_flag("rate", "100000",
                     "offered arrival rate in total ops/s across all "
                     "threads");
        cli.add_flag("spike-frac", "0.1",
                     "fraction of the run the spike covers");
        cli.add_flag("spike-mult", "8",
                     "rate multiplier inside the spike window");
        cli.add_flag("diurnal-amplitude", "0.75",
                     "sinusoid amplitude as a fraction of the base "
                     "rate, in [0, 1]");
        cli.add_flag("diurnal-periods", "1",
                     "full sinusoid cycles over the run");
        cli.add_flag("slo-p99-us", "0",
                     "intended-start p99 objective in microseconds "
                     "(0 = no latency objective)");
        cli.add_flag("slo-min-rate", "0.9",
                     "fail the SLO when achieved/offered rate falls "
                     "below this fraction, in (0, 1]");
        cli.add_bool_flag("slo-enforce", false,
                          "exit nonzero when any record's SLO verdict "
                          "fails (default: report only)");
        cli.add_bool_flag("find-sustainable", false,
                          "binary-search the highest offered rate that "
                          "still passes the SLO, from --rate");
    };
    e.configure = [w](const cli_parser &cli, const core_config &core) {
        w->duration_s =
            core.smoke ? 0.05 : cli.get_double("duration");
        const auto pct = cli.get_int("insert-pct");
        if (pct < 0 || pct > 100) {
            std::cerr << "--insert-pct " << pct
                      << " must be in [0, 100]\n";
            return false;
        }
        w->insert_percent = static_cast<unsigned>(pct);
        const auto arrival =
            klsm::service::parse_arrival(cli.get("arrival"));
        if (!arrival) {
            std::cerr << "unknown --arrival process: "
                      << cli.get("arrival")
                      << " (expected steady, poisson, spike, or "
                         "diurnal)\n";
            return false;
        }
        w->arrival = *arrival;
        w->rate = cli.get_double("rate");
        w->spike_frac = cli.get_double("spike-frac");
        w->spike_mult = cli.get_double("spike-mult");
        w->diurnal_amplitude = cli.get_double("diurnal-amplitude");
        w->diurnal_periods = cli.get_double("diurnal-periods");
        w->slo_p99_ns = static_cast<std::uint64_t>(
            cli.get_double("slo-p99-us") * 1000.0);
        w->slo_min_rate = cli.get_double("slo-min-rate");
        w->slo_enforce = cli.get_bool("slo-enforce");
        w->find_sustainable = cli.get_bool("find-sustainable");
        if (!(w->slo_min_rate > 0) || w->slo_min_rate > 1) {
            std::cerr << "--slo-min-rate " << w->slo_min_rate
                      << " must be in (0, 1]\n";
            return false;
        }
        // Validate the arrival process once up front (post --smoke
        // shrinking, so the cap sees the real duration) instead of
        // throwing mid-benchmark.  --find-sustainable doubles the rate
        // up to 2^4 times, so its ceiling must clear the cap too.
        for (const auto t : core.threads_list) {
            klsm::service::arrival_config acfg;
            acfg.kind = w->arrival;
            acfg.rate =
                w->find_sustainable ? w->rate * 16 : w->rate;
            acfg.duration_s = w->duration_s;
            acfg.threads = static_cast<unsigned>(t);
            acfg.spike_fraction = w->spike_frac;
            acfg.spike_multiplier = w->spike_mult;
            acfg.diurnal_amplitude = w->diurnal_amplitude;
            acfg.diurnal_periods = w->diurnal_periods;
            try {
                klsm::service::validate_arrival_config(acfg);
            } catch (const std::invalid_argument &ex) {
                std::cerr << "service workload: " << ex.what() << "\n";
                return false;
            }
        }
        return true;
    };
    e.annotate_meta = [w](const core_config &core,
                          klsm::json_record &meta) {
        meta.set("arrival", klsm::service::arrival_name(w->arrival));
        meta.set("rate", w->rate);
        meta.set("duration_s", w->duration_s);
        meta.set("insert_percent", w->insert_percent);
        meta.set("prefill", core.prefill);
        meta.set("slo_p99_ns", w->slo_p99_ns);
        meta.set("slo_min_achieved_fraction", w->slo_min_rate);
        meta.set("find_sustainable", w->find_sustainable);
    };
    e.run = [w](const core_config &core, klsm::json_reporter &json) {
        return run(*w, core, json);
    };
    return e;
}

} // namespace klsm::bench
