// The `des` workload registrant: PHOLD-style parallel discrete-event
// simulation (src/workloads/des.hpp).  Each committed event schedules a
// successor, so the queue stays at a fixed population while virtual
// time advances.  The scalar is events/sec at a fixed
// causality-violation budget: relaxation trades commit rate against
// out-of-timestamp-order executions, and the record carries both sides
// of that trade.

#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench_common.hpp"
#include "stats/latency_report.hpp"
#include "workloads/des.hpp"

namespace klsm::bench {
namespace {

struct des_config {
    std::uint32_t lps = 256;
    // Above the largest k the sweeps use (4096): a population the local
    // components can absorb whole never exercises the shared ordering,
    // which flattens the k-vs-violations curve the workload exists to
    // measure.
    std::uint64_t population = 8192;
    std::uint64_t target_events = 200000;
    std::uint64_t lookahead = 0;
    std::uint64_t mean_delay = 64;
    // Sized so the k-LSM's default operating point (k=256) passes with
    // margin while the heavily relaxed regimes (k >= 1024) flip the
    // verdict — see the k sweep in tests/workloads.
    double budget = 0.15;
};

std::string des_json(const des_config &w,
                     const klsm::workloads::des_result &res,
                     bool budget_ok) {
    std::ostringstream out;
    out << "{\"lps\":" << w.lps
        << ",\"population\":" << w.population
        << ",\"target_events\":" << w.target_events
        << ",\"committed\":" << res.committed
        << ",\"scheduled\":" << res.scheduled
        << ",\"failed_pops\":" << res.failed_pops
        << ",\"violations\":" << res.violations
        << ",\"violation_fraction\":" << res.violation_fraction()
        << ",\"lookahead\":" << w.lookahead
        << ",\"mean_delay\":" << w.mean_delay
        << ",\"budget\":" << w.budget
        << ",\"budget_ok\":" << (budget_ok ? "true" : "false")
        << ",\"max_lag\":" << res.max_lag
        << ",\"virtual_time\":" << res.virtual_time << "}";
    return out.str();
}

int run(const des_config &w, const core_config &cfg,
        klsm::json_reporter &json) {
    klsm::table_reporter report({"structure", "pin", "threads", "events/s",
                                 "violations", "viol_frac", "max_lag",
                                 "budget"},
                                cfg.csv, table_stream(cfg));
    for (const auto &pin : cfg.pins) {
        const auto cpus = pin_order(pin);
        for (const auto threads_i : cfg.threads_list) {
            const auto threads = static_cast<unsigned>(threads_i);
            for (const auto &name : cfg.structures) {
                const bool ok = with_structure<std::uint64_t,
                                               std::uint64_t>(
                    name, threads, cfg.k, cfg,
                    [&](auto &q) {
                        klsm::workloads::des_params params;
                        params.lps = w.lps;
                        params.population = w.population;
                        params.target_events = w.target_events;
                        params.lookahead = w.lookahead;
                        params.mean_delay = w.mean_delay;
                        params.threads = threads;
                        params.seed = cfg.seed;
                        params.pin_cpus = cpus;
                        klsm::stats::latency_recorder_set recs{
                            threads, cfg.latency_sample};
                        params.latency = &recs;
                        record_sampling sampling{cfg, threads,
                                                 /*duration_hint_s=*/0};
                        sampling.wire(q);
                        params.progress = sampling.progress();
                        KLSM_TRACE_SPAN(rec_span,
                                        klsm::trace::kind::bench_record);
                        rec_span.arg(
                            klsm::trace::clamp16(g_record_index++));
                        sampling.start();
                        const auto res =
                            klsm::workloads::run_des(q, params);
                        // The budget is a reporting threshold, not a
                        // correctness gate: PHOLD stays valid under
                        // reordering, so the verdict is recorded here
                        // and *enforced* by compare_bench.py (an
                        // ok→fail flip between baseline and candidate
                        // is a regression).
                        const bool budget_ok =
                            res.violation_fraction() <= w.budget;
                        report.row(name, pin, threads,
                                   res.events_per_sec(), res.violations,
                                   res.violation_fraction(), res.max_lag,
                                   budget_ok ? "ok" : "over");
                        auto &rec = open_record(json, "des", name,
                                                pin, threads);
                        rec.set("ops", res.committed);
                        rec.set("pin_failures", res.pin_failures);
                        rec.set("elapsed_s", res.elapsed_s);
                        rec.set("events_per_sec", res.events_per_sec());
                        rec.set("ops_per_sec", res.events_per_sec());
                        rec.set_raw("des", des_json(w, res, budget_ok));
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

workload_entry des_workload() {
    auto w = std::make_shared<des_config>();
    workload_entry e;
    e.name = "des";
    e.summary = "PHOLD discrete-event simulation at a violation budget";
    e.gates = {
        {.path = "events_per_sec", .unit = "events/s", .better = "higher"},
        {.path = "des.budget_ok",
         .unit = "bool",
         .better = "higher",
         .kind = "verdict",
         .context = {"des.violation_fraction", "des.budget"}},
    };
    e.register_flags = [](cli_parser &cli) {
        cli.add_flag("des-lps", "256",
                     "logical processes (independent simulated clocks)");
        cli.add_flag("des-population", "8192",
                     "event population kept in flight (keep above k so "
                     "relaxation is actually exercised)");
        cli.add_flag("des-events", "200000",
                     "committed events before the run stops");
        cli.add_flag("des-lookahead", "0",
                     "timestamp slack tolerated before a pop counts as "
                     "a causality violation");
        cli.add_flag("des-mean-delay", "64",
                     "mean virtual-time increment per scheduled event");
        cli.add_flag("des-budget", "0.15",
                     "violation fraction at or under which the record "
                     "reports budget_ok");
    };
    e.configure = [w](const cli_parser &cli, const core_config &core) {
        const auto lps = cli.get_int("des-lps");
        if (lps < 1 || lps > 65535) {
            std::cerr << "--des-lps " << lps
                      << " must be in [1, 65535]\n";
            return false;
        }
        w->lps = static_cast<std::uint32_t>(lps);
        w->population = cli.get_uint64("des-population");
        w->target_events = cli.get_uint64("des-events");
        w->lookahead = cli.get_uint64("des-lookahead");
        w->mean_delay = cli.get_uint64("des-mean-delay");
        w->budget = cli.get_double("des-budget");
        if (w->population == 0 || w->target_events == 0) {
            std::cerr << "--des-population and --des-events must be "
                         "positive\n";
            return false;
        }
        if (w->mean_delay == 0) {
            std::cerr << "--des-mean-delay must be positive\n";
            return false;
        }
        if (w->budget < 0.0 || w->budget > 1.0) {
            std::cerr << "--des-budget must be in [0, 1]\n";
            return false;
        }
        if (core.smoke) {
            w->target_events =
                std::min<std::uint64_t>(w->target_events, 20000);
            // Not shrunk below the k ceiling: a sub-k population makes
            // every k look perfect (nothing spills to the shared
            // component), and seeding 8192 events is cheap anyway.
            w->population = std::min<std::uint64_t>(w->population, 8192);
        }
        return true;
    };
    e.annotate_meta = [w](const core_config &core,
                          klsm::json_record &meta) {
        meta.set("des_lps", w->lps);
        meta.set("des_population", w->population);
        meta.set("des_target_events", w->target_events);
        meta.set("des_lookahead", w->lookahead);
        meta.set("des_mean_delay", w->mean_delay);
        meta.set("des_budget", w->budget);
        (void)core;
    };
    e.run = [w](const core_config &core, klsm::json_reporter &json) {
        return run(*w, core, json);
    };
    return e;
}

} // namespace klsm::bench
