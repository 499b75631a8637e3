#pragma once

// Quiesce-time trace export in Chrome-trace ("Trace Event") JSON, the
// format both chrome://tracing and ui.perfetto.dev load directly.
//
// Mapping from the 16-byte runtime events (trace_event.hpp):
//
//  * span kinds   -> ph:"X" complete events: `b` is the duration in
//    ns and the recorded timestamp is the span *end*, so the exported
//    ts is `end - dur`;
//  * instant kinds-> ph:"i" thread-scoped instants with both named
//    arguments;
//  * metrics-sampler columns (metrics_sampler.hpp) -> ph:"C" counter
//    tracks, so the in-run ops/s / EWMA / pool gauges render as
//    graphs on the same timeline as the events.
//
// Timestamps are microseconds (double) relative to the tracer's
// enable() base, which keeps them small, positive, and monotone —
// properties scripts/check_report.py asserts.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_event.hpp"
#include "trace/tracer.hpp"

namespace klsm::trace {

/// One counter track for the export: (ts_ns, value) points.
struct counter_series {
    std::string name;
    std::vector<std::pair<std::uint64_t, double>> points;
};

namespace detail {

inline void write_counter_value(std::ostream &os, double v)
{
    // JSON has no NaN/Inf; a counter that never sampled writes 0.
    if (!(v == v) || v > 1e300 || v < -1e300) {
        v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    os << buf;
}

/// Events destined for the "traceEvents" array, pre-serialized except
/// for ordering, so spans/instants/counters can be merged ts-sorted.
struct staged_event {
    double ts_us;
    std::string json;
};

} // namespace detail

/// Serialize the tracer's drained rings (plus optional counter
/// tracks) as one Chrome-trace JSON document.  Call only at quiesce.
inline void write_chrome_trace(
    std::ostream &os, tracer &t,
    const std::vector<counter_series> *counters = nullptr,
    const char *process_name = "klsm_bench")
{
    tracer::drain_stats stats;
    const auto events = t.drain_sorted(&stats);
    const std::uint64_t base = t.base_ns();

    const auto rel_us = [base](std::uint64_t ts_ns) {
        return ts_ns >= base
                   ? static_cast<double>(ts_ns - base) * 1e-3
                   : 0.0;
    };

    std::vector<detail::staged_event> staged;
    staged.reserve(events.size() + 64);

    for (const auto &te : events) {
        const kind_info &ki = info(te.ev.kind_);
        const double end_us = rel_us(te.ev.ts_ns);
        std::string j;
        j.reserve(160);
        j += "{\"name\":\"";
        j += ki.name;
        j += "\",\"cat\":\"";
        j += ki.category;
        j += "\",\"pid\":1,\"tid\":";
        j += std::to_string(te.tid);
        char num[64];
        double ts_us = end_us;
        if (ki.span) {
            const double dur_us =
                static_cast<double>(te.ev.b) * 1e-3;
            ts_us = end_us > dur_us ? end_us - dur_us : 0.0;
            std::snprintf(num, sizeof num,
                          ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f",
                          ts_us, dur_us);
            j += num;
            j += ",\"args\":{\"";
            j += (ki.arg_a != nullptr && ki.arg_a[0] != '\0')
                     ? ki.arg_a
                     : "a";
            j += "\":";
            j += std::to_string(te.ev.a);
            j += "}}";
        } else {
            std::snprintf(num, sizeof num,
                          ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f",
                          ts_us);
            j += num;
            j += ",\"args\":{";
            bool first = true;
            if (ki.arg_a != nullptr && ki.arg_a[0] != '\0') {
                j += "\"";
                j += ki.arg_a;
                j += "\":";
                j += std::to_string(te.ev.a);
                first = false;
            }
            if (ki.arg_b != nullptr && ki.arg_b[0] != '\0') {
                if (!first) {
                    j += ",";
                }
                j += "\"";
                j += ki.arg_b;
                j += "\":";
                j += std::to_string(te.ev.b);
            }
            j += "}}";
        }
        staged.push_back({ts_us, std::move(j)});
    }

    if (counters != nullptr) {
        for (const auto &cs : *counters) {
            for (const auto &[ts_ns, value] : cs.points) {
                const double ts_us = rel_us(ts_ns);
                std::string j;
                j.reserve(120);
                char num[64];
                std::snprintf(num, sizeof num,
                              "\"ph\":\"C\",\"ts\":%.3f", ts_us);
                j += "{\"name\":\"";
                j += cs.name;
                j += "\",\"cat\":\"metrics\",\"pid\":1,\"tid\":0,";
                j += num;
                j += ",\"args\":{\"value\":";
                {
                    std::ostringstream vs;
                    detail::write_counter_value(vs, value);
                    j += vs.str();
                }
                j += "}}";
                staged.push_back({ts_us, std::move(j)});
            }
        }
    }

    std::stable_sort(staged.begin(), staged.end(),
                     [](const detail::staged_event &x,
                        const detail::staged_event &y) {
                         return x.ts_us < y.ts_us;
                     });

    os << "{\n\"traceEvents\": [\n";
    // Process metadata first; viewers use it for track naming.
    os << "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
          "\"tid\":0,\"ts\":0,\"args\":{\"name\":\""
       << process_name << "\"}}";
    {
        // Name each thread track by its dense slot id.
        std::vector<bool> seen(max_registered_threads, false);
        for (const auto &te : events) {
            if (te.tid < seen.size() && !seen[te.tid]) {
                seen[te.tid] = true;
                os << ",\n  {\"name\":\"thread_name\",\"ph\":\"M\","
                      "\"pid\":1,\"tid\":"
                   << te.tid << ",\"ts\":0,\"args\":{\"name\":\"slot-"
                   << te.tid << "\"}}";
            }
        }
    }
    for (const auto &se : staged) {
        os << ",\n  " << se.json;
    }
    os << "\n],\n";
    os << "\"displayTimeUnit\": \"ms\",\n";
    os << "\"otherData\": {"
       << "\"recorded_events\": " << stats.recorded
       << ", \"dropped_events\": " << stats.dropped
       << ", \"threads\": " << stats.rings << "}\n";
    os << "}\n";
}

} // namespace klsm::trace
