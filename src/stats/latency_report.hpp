#pragma once

// JSON serialization of merged latency histograms: the `latency` object
// every klsm_bench record carries when sampling is enabled, with
// `insert` and `delete_min` stats objects (README "Latency metrics";
// latency_schema() declares the fields).
//
// `dropped_intervals` counts samples that exceeded 10x the recorder's
// running p99 estimate — the coordinated-omission tell: each such stall
// suppressed op issue, so the histogram under-weights it (see
// latency_recorder.hpp).
//
// Percentiles are precomputed for at-a-glance reading; the sparse
// `buckets` array of [index, count] pairs is the ground truth — with
// `sub_bucket_bits` it fully determines the bucket edges
// (latency_histogram.hpp's bucket_lower/bucket_upper), so offline
// tooling (scripts/compare_bench.py among them) can re-aggregate,
// re-percentile, or merge across records without C++.

#include <sstream>
#include <string>

#include "harness/reporter.hpp"
#include "stats/latency_histogram.hpp"
#include "stats/latency_recorder.hpp"

namespace klsm {
namespace stats {

/// One op's stats as a JSON object string.
inline std::string latency_op_json(const latency_histogram &h,
                                   std::uint64_t dropped_intervals = 0) {
    std::ostringstream os;
    os << "{\"count\":" << h.count();
    os << ",\"mean\":" << h.mean();
    os << ",\"min\":" << h.min();
    os << ",\"p50\":" << h.percentile(50);
    os << ",\"p90\":" << h.percentile(90);
    os << ",\"p99\":" << h.percentile(99);
    os << ",\"p999\":" << h.percentile(99.9);
    os << ",\"max\":" << h.max();
    os << ",\"dropped_intervals\":" << dropped_intervals;
    os << ",\"buckets\":[";
    bool first = true;
    h.for_each_nonempty([&](std::size_t i, std::uint64_t c) {
        os << (first ? "" : ",") << "[" << i << "," << c << "]";
        first = false;
    });
    os << "]}";
    return os.str();
}

/// The fields of an `insert` / `delete_min` pair of latency_op_json
/// objects.
inline std::string latency_ops_schema() {
    const char *op = "count:count:samples mean:number:ns min:count:ns "
                     "p50:count:ns p90:count:ns p99:count:ns p999:count:ns "
                     "max:count:ns dropped_intervals:count:samples "
                     "buckets[].0:count:bucket buckets[].1:count:samples";
    return prefixed("insert.", op) + prefixed("delete_min.", op);
}

inline std::string latency_schema() {
    return "unit:enum=ns sample_stride:count:ops sub_bucket_bits:count:bits " +
           latency_ops_schema();
}

/// The full `latency` object for one benchmark record.
inline std::string latency_json(const latency_recorder_set &recs) {
    std::ostringstream os;
    os << "{\"unit\":\"ns\",\"sample_stride\":" << recs.stride()
       << ",\"sub_bucket_bits\":" << latency_histogram::sub_bits;
    for (unsigned op = 0; op < op_kinds; ++op) {
        const auto kind = static_cast<op_kind>(op);
        os << ",\"" << op_name(kind) << "\":"
           << latency_op_json(recs.merged(kind),
                              recs.dropped_intervals(kind));
    }
    os << "}";
    return os.str();
}

} // namespace stats
} // namespace klsm
