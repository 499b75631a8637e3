// The `bnb` workload registrant: best-first 0/1-knapsack
// branch-and-bound (src/workloads/bnb.hpp).  The scalar outputs are
// the expanded-node count and the time until the incumbent reaches
// the DP optimum — both grow with relaxation, so they price queue
// ordering quality in end-to-end terms.  A run whose best value
// disagrees with the DP reference exits nonzero.

#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench_common.hpp"
#include "stats/latency_report.hpp"
#include "workloads/bnb.hpp"

namespace klsm::bench {
namespace {

struct bnb_config {
    std::uint32_t items = 34;
    std::uint32_t seed_depth = 13;
};

std::string bnb_json(const klsm::workloads::knapsack_instance &ks,
                     const klsm::workloads::bnb_result &res) {
    std::ostringstream out;
    out << "{\"items\":" << ks.items()
        << ",\"capacity\":" << ks.capacity
        << ",\"optimum\":" << ks.optimum
        << ",\"best\":" << res.best
        << ",\"match\":" << (res.best == ks.optimum ? "true" : "false")
        << ",\"expanded\":" << res.expanded
        << ",\"wasted_expansions\":" << res.wasted_expansions
        << ",\"pruned_pops\":" << res.pruned_pops
        << ",\"pushed\":" << res.pushed
        << ",\"failed_pops\":" << res.failed_pops
        << ",\"time_to_optimum_s\":" << res.time_to_optimum_s << "}";
    return out.str();
}

int run(const bnb_config &w, const core_config &cfg,
        klsm::json_reporter &json) {
    // One instance per invocation: every (structure, pin, threads)
    // point searches the same deterministic tree, so expanded-node
    // counts are comparable across the sweep.
    const auto ks = klsm::workloads::make_knapsack(w.items, cfg.seed);
    klsm::table_reporter report({"structure", "pin", "threads",
                                 "expanded", "wasted", "t_opt_ms",
                                 "time_s", "match"},
                                cfg.csv, table_stream(cfg));
    int status = 0;
    for (const auto &pin : cfg.pins) {
        const auto cpus = pin_order(pin);
        for (const auto threads_i : cfg.threads_list) {
            const auto threads = static_cast<unsigned>(threads_i);
            for (const auto &name : cfg.structures) {
                const bool ok = with_structure<std::uint64_t,
                                               std::uint64_t>(
                    name, threads, cfg.k, cfg,
                    [&](auto &q) {
                        klsm::workloads::bnb_params params;
                        params.threads = threads;
                        params.seed_frontier_depth = w.seed_depth;
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
                            klsm::workloads::run_bnb(q, ks, params);
                        const bool match = res.best == ks.optimum;
                        report.row(name, pin, threads, res.expanded,
                                   res.wasted_expansions,
                                   res.time_to_optimum_s * 1000.0,
                                   res.elapsed_s,
                                   match ? "ok" : "FAIL");
                        auto &rec = open_record(json, "bnb", name,
                                                pin, threads);
                        rec.set("expanded", res.expanded);
                        rec.set("pin_failures", res.pin_failures);
                        rec.set("elapsed_s", res.elapsed_s);
                        rec.set("time_to_optimum_s",
                                res.time_to_optimum_s);
                        rec.set("ops_per_sec", res.ops_per_sec());
                        rec.set_raw("bnb", bnb_json(ks, res));
                        if (recs.enabled())
                            rec.set_raw("latency",
                                        klsm::stats::latency_json(recs));
                        sampling.finish(rec,
                                        record_label(name, pin, threads));
                        attach_memory(rec, q, cfg);
                        if (!match) {
                            std::cerr << "BNB MISMATCH: " << name
                                      << " with " << threads
                                      << " threads found " << res.best
                                      << ", DP optimum is " << ks.optimum
                                      << "\n";
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

workload_entry bnb_workload() {
    auto w = std::make_shared<bnb_config>();
    workload_entry e;
    e.name = "bnb";
    e.summary = "best-first 0/1-knapsack branch-and-bound to optimality";
    // Relaxed pop order makes the search scalars noisy, hence the loose
    // search class; smoke instances reach the optimum in microseconds,
    // hence the 10 ms floor.  Losing the optimum always regresses.
    e.gates = {
        {.path = "time_to_optimum_s",
         .unit = "s",
         .better = "lower",
         .tolerance = "search",
         .floor = 0.01},
        {.path = "expanded",
         .unit = "nodes",
         .better = "lower",
         .tolerance = "search"},
        {.path = "bnb.match",
         .unit = "bool",
         .better = "higher",
         .kind = "verdict",
         .context = {"bnb.best", "bnb.optimum"}},
    };
    e.register_flags = [](cli_parser &cli) {
        cli.add_flag("bnb-items", "34",
                     "knapsack items in the generated instance "
                     "(uncorrelated weights and values)");
        cli.add_flag("bnb-seed-depth", "13",
                     "pre-enumerate the tree to this depth and seed "
                     "the queue with the whole frontier (~2^depth "
                     "nodes); keep it above log2(k) so pops exercise "
                     "the relaxed shared ordering");
    };
    e.configure = [w](const cli_parser &cli, const core_config &core) {
        const auto items = cli.get_int("bnb-items");
        if (items < 4 || items > 2000) {
            std::cerr << "--bnb-items " << items
                      << " must be in [4, 2000]\n";
            return false;
        }
        const auto depth = cli.get_int("bnb-seed-depth");
        if (depth < 0 || depth > 20) {
            std::cerr << "--bnb-seed-depth " << depth
                      << " must be in [0, 20]\n";
            return false;
        }
        w->items = static_cast<std::uint32_t>(items);
        w->seed_depth = static_cast<std::uint32_t>(depth);
        if (core.smoke)
            w->items = std::min<std::uint32_t>(w->items, 30);
        return true;
    };
    e.annotate_meta = [w](const core_config &core,
                          klsm::json_record &meta) {
        meta.set("bnb_items", w->items);
        meta.set("bnb_seed_depth", w->seed_depth);
        (void)core;
    };
    e.run = [w](const core_config &core, klsm::json_reporter &json) {
        return run(*w, core, json);
    };
    return e;
}

} // namespace klsm::bench
