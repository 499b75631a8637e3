// Unified benchmark driver.  This translation unit owns only the
// driver skeleton: build the workload registry, register flags (core
// group first, then each workload's own group), resolve the selection,
// hand the core config and reporter to each selected workload, and
// export the trace/JSON artifacts at the end.
//
// Everything workload-specific — flags, validation, smoke shrinking,
// meta annotation, the sweep itself — lives with its registrant in
// bench/workload_*.cpp behind the harness/workload_registry.hpp API.
// Dispatch is a registry lookup; this file compares no workload names.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/workload_registry.hpp"
#include "trace/trace_export.hpp"
#include "trace/tracer.hpp"
#include "util/cli.hpp"

int main(int argc, char **argv) {
    using namespace klsm::bench;

    workload_registry registry;
    register_builtin_workloads(registry);

    klsm::cli_parser cli(
        "Unified k-LSM benchmark driver: one CLI for every structure and "
        "workload, one JSON report per invocation");
    register_core_flags(cli, registry);
    registry.register_flags(cli);
    cli.parse(argc, argv);

    const std::string selection = cli.get("workload");
    std::string resolve_error;
    const auto selected = registry.resolve(selection, &resolve_error);
    if (selected.empty()) {
        std::cerr << resolve_error << "\n";
        return 2;
    }

    core_config cfg;
    cfg.workload = selection;
    if (!parse_core_config(cli, selected, cfg))
        return 2;
    for (const auto *entry : selected)
        if (entry->configure && !entry->configure(cli, cfg))
            return 2;

    if (cfg.trace)
        klsm::trace::tracer::instance().enable(cfg.trace_ring);

    klsm::json_reporter json(selection);
    annotate_core_meta(cfg, json);
    json.meta().set_raw("gates", gates_json(selected));
    // A comma selection shares one meta block; per-workload settings
    // would collide there, so each record's "workload" field carries
    // the attribution instead.
    if (selected.size() == 1 && selected.front()->annotate_meta)
        selected.front()->annotate_meta(cfg, json.meta());

    int status = 0;
    for (const auto *entry : selected) {
        const int s = entry->run(cfg, json);
        if (s == 2)
            return 2;
        status = std::max(status, s);
    }

    if (cfg.trace) {
        // Stop recording before draining: the export walks the rings,
        // which is only safe once every instrumented thread is gone.
        klsm::trace::tracer::instance().disable();
        std::ofstream tout(cfg.trace_out);
        if (!tout) {
            std::cerr << "cannot open " << cfg.trace_out
                      << " for writing\n";
            return 2;
        }
        klsm::trace::write_chrome_trace(
            tout, klsm::trace::tracer::instance(), &g_counter_tracks);
    }

    const std::string json_out = cli.get("json-out");
    if (json_out == "-") {
        json.write(std::cout);
    } else if (!json_out.empty()) {
        std::ofstream out(json_out);
        if (!out) {
            std::cerr << "cannot open " << json_out << " for writing\n";
            return 2;
        }
        json.write(out);
    }
    return status;
}
