#pragma once

// The cross-cutting benchmark configuration: everything a workload
// driver needs that is not specific to one workload — which structures
// to run, thread counts, pinning, relaxation/handle knobs, allocation
// telemetry and reclamation, tracing, and output routing.
//
// Workload-specific settings (event counts, arrival processes, graph
// sizes, ...) live in per-workload config structs owned by the
// registrants in bench/workload_*.cpp; each registrant parses and
// validates its own flags (see harness/workload_registry.hpp).  This
// struct is deliberately the *intersection*, not the union, of what
// the workloads consume.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mm/reclaim/config.hpp"
#include "trace/tracer.hpp"

namespace klsm::bench {

struct core_config {
    /// The resolved workload selection string (comma-separable), as it
    /// appears in the report's meta "benchmark" field.
    std::string workload = "throughput";

    std::vector<std::string> structures{"klsm"};
    std::vector<std::string> pins{"none"};
    std::vector<std::int64_t> threads_list{4};

    // Relaxation and handle knobs.
    std::size_t k = 256;
    std::size_t mq_stickiness = 8;
    std::size_t mq_buffer = 16;
    std::size_t insert_buffer = 0;

    // Shared measurement shape.
    std::size_t prefill = 100000;
    std::uint64_t seed = 1;
    std::uint64_t latency_sample = 0;

    // Allocation telemetry and reclamation.
    bool alloc_stats = false;
    mm::reclaim_config reclaim{};

    // Observability.
    bool trace = false;
    std::string trace_out = "trace.json";
    std::size_t trace_ring = trace::tracer::default_ring_capacity;
    double metrics_interval_ms = 0.0;

    // Output routing.
    bool smoke = false;
    bool csv = false;
    bool json_to_stdout = false;
};

} // namespace klsm::bench
