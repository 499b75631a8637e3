// The `sssp` workload registrant: label-correcting parallel SSSP on an
// Erdős–Rényi graph, verified against sequential Dijkstra (Figure 4).

#include <memory>

#include "bench_common.hpp"
#include "graph/dijkstra.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/parallel_sssp.hpp"
#include "stats/latency_report.hpp"
#include "util/timer.hpp"

namespace klsm::bench {
namespace {

struct sssp_config {
    std::uint32_t nodes = 1000;
    double edge_prob = 0.05;
};

int run(const sssp_config &w, const core_config &cfg,
        klsm::json_reporter &json) {
    klsm::erdos_renyi_params gp;
    gp.nodes = w.nodes;
    gp.edge_probability = w.edge_prob;
    gp.max_weight = 100000000;
    gp.seed = cfg.seed;
    const klsm::graph g = klsm::make_erdos_renyi(gp);
    const auto ref = klsm::dijkstra(g, 0);
    json.meta().set("nodes", g.num_nodes());
    json.meta().set("arcs", static_cast<std::uint64_t>(g.num_edges()));

    klsm::table_reporter report({"structure", "pin", "threads", "time_s",
                                 "expansions", "stale_pops",
                                 "mismatches"},
                                table_stream(cfg));
    int status = 0;
    // Runs one (structure, pin, threads) point on a caller-created state;
    // the k-LSM needs the state before queue construction to wire in
    // lazy deletion, the other structures don't care.
    auto run_one = [&](const std::string &name, const std::string &pin,
                       const std::vector<std::uint32_t> &cpus,
                       unsigned threads, klsm::sssp_state &state,
                       auto &q) {
        klsm::stats::latency_recorder_set recs{threads,
                                               cfg.latency_sample};
        klsm::wall_timer timer;
        const auto stats =
            klsm::parallel_sssp(q, g, 0, threads, state, cpus, &recs);
        const double seconds = timer.elapsed_s();
        std::uint64_t mismatches = 0;
        for (std::uint32_t u = 0; u < g.num_nodes(); ++u)
            mismatches += (state.dist(u) != ref.dist[u]);
        report.row(name, pin, threads, seconds, stats.expansions,
                   stats.stale_pops, mismatches);
        auto &rec = open_record(json, "sssp", name, pin, threads);
        rec.set("time_s", seconds);
        rec.set("expansions", stats.expansions);
        // Figure 4's wasted work is expansions - settled.
        rec.set("settled", ref.settled);
        rec.set("stale_pops", stats.stale_pops);
        rec.set("pin_failures", stats.pin_failures);
        rec.set("mismatches", mismatches);
        if (recs.enabled())
            rec.set_raw("latency", klsm::stats::latency_json(recs));
        attach_memory(rec, q, cfg);
        if (mismatches) {
            std::cerr << "SSSP MISMATCH: " << name << " with " << threads
                      << " threads disagrees with Dijkstra on "
                      << mismatches << " nodes\n";
            status = 1;
        }
    };
    for (const auto &pin : cfg.pins) {
        const auto cpus = pin_order(pin);
        for (const auto threads_i : cfg.threads_list) {
            const auto threads = static_cast<unsigned>(threads_i);
            for (const auto &name : cfg.structures) {
                if (name == "klsm") {
                    // Paper Section 4.5: superseded (distance, node)
                    // entries are dropped when the k-LSM rebuilds blocks.
                    klsm::sssp_state state{g.num_nodes()};
                    klsm::k_lsm<std::uint64_t, std::uint32_t,
                                klsm::sssp_lazy>
                        q{cfg.k, klsm::sssp_lazy{&state},
                          family_placement(cfg)};
                    run_one(name, pin, cpus, threads, state, q);
                    continue;
                }
                klsm::sssp_state state{g.num_nodes()};
                const bool ok =
                    with_structure<std::uint64_t, std::uint32_t>(
                        name, threads, cfg.k, cfg, [&](auto &q) {
                            run_one(name, pin, cpus, threads, state, q);
                        });
                if (!ok)
                    return 2;
            }
        }
    }
    return status;
}

} // namespace

workload_entry sssp_workload() {
    auto w = std::make_shared<sssp_config>();
    workload_entry e;
    e.name = "sssp";
    e.summary = "parallel SSSP vs sequential Dijkstra (Figure 4)";
    e.gates = {{.path = "time_s", .unit = "s", .better = "lower"}};
    e.schema = "time_s:number:s expansions:count:nodes settled:count:nodes "
               "stale_pops:count:pops pin_failures:count:threads "
               "mismatches:count:nodes";
    e.meta_schema = "nodes:count:nodes arcs:count:arcs";
    e.blocks = "latency memory";
    e.register_flags = [](cli_parser &cli) {
        cli.add_flag("nodes", "1000", "graph size");
        cli.add_flag("edge-prob", "0.05", "edge probability");
    };
    e.configure = [w](const cli_parser &cli, const core_config &core) {
        if (core.smoke) {
            w->nodes = 200;
            w->edge_prob = 0.1;
        } else {
            const std::uint64_t nodes = cli.get_uint64("nodes");
            if (nodes == 0 || nodes > 0xffffffffu) {
                // Node 0 is the source; node ids are 32-bit.
                std::cerr << "--nodes " << nodes
                          << " must be in [1, 2^32 - 1]\n";
                return false;
            }
            w->nodes = static_cast<std::uint32_t>(nodes);
            w->edge_prob = cli.get_double("edge-prob");
        }
        return true;
    };
    e.run = [w](const core_config &core, klsm::json_reporter &json) {
        return run(*w, core, json);
    };
    return e;
}

} // namespace klsm::bench
