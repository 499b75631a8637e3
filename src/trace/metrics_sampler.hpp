#pragma once

// In-run metrics sampler: a ticker thread that snapshots a set of
// named probes every `--metrics-interval` and keeps the rows for two
// consumers — the `timeseries` block of the bench JSON report, and
// ph:"C" counter tracks in the Chrome-trace export (trace_export.hpp)
// so the same numbers render as graphs under the event timeline.
//
// Probes come in two kinds:
//   * counter — cumulative and monotone (total ops, failed CAS count);
//     consumers derive per-interval rates from sample deltas, which is
//     why the sampler stores raw values instead of rates: no precision
//     is lost to the sampling cadence.
//   * gauge   — instantaneous level (pool bytes, rank error).
//
// Probe callbacks run on the sampler thread concurrently with the
// workload, so they must only read relaxed atomics / concurrent-safe
// accessors (progress_counters totals, contention_monitor::totals(),
// memory_stats(false)).
//
// The absolute-schedule periodic_ticker (util/ticker.hpp) keeps rows
// evenly spaced; rows are timestamped with the shared steady clock so
// they line up with trace events.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_export.hpp"
#include "util/ticker.hpp"
#include "util/timer.hpp"

namespace klsm::trace {

class metrics_sampler {
public:
    /// `interval_s` is the effective sampling period;
    /// `requested_interval_s` is what the user asked for (the driver
    /// may clamp the effective period so short smoke runs still yield
    /// a useful number of rows — both are reported in the JSON).
    metrics_sampler(double interval_s, double requested_interval_s)
        : interval_s_(interval_s > 0 ? interval_s : 0.05),
          requested_interval_s_(requested_interval_s > 0
                                    ? requested_interval_s
                                    : interval_s_)
    {
    }

    void add_counter(std::string name, std::function<double()> fn)
    {
        columns_.push_back({std::move(name), true, std::move(fn)});
    }

    void add_gauge(std::string name, std::function<double()> fn)
    {
        columns_.push_back({std::move(name), false, std::move(fn)});
    }

    /// Begin sampling: records the t=0 row immediately, then one row
    /// per interval on the ticker thread.
    void start()
    {
        base_ns_ = now_ns();
        sample_once();
        ticker_ = std::make_unique<periodic_ticker>(
            [this] { sample_once(); }, interval_s_);
    }

    /// Stop the ticker and record a final row, so even the shortest
    /// run ends with a complete (start, ..., end) series.
    void stop()
    {
        ticker_.reset();
        sample_once();
    }

    std::size_t samples() const
    {
        const std::lock_guard<std::mutex> lock(rows_mutex_);
        return rows_.size();
    }
    std::size_t columns() const { return columns_.size(); }

    /// The `timeseries` JSON object (no trailing newline):
    /// {"requested_interval_ms":..,"interval_ms":..,
    ///  "columns":[{"name":..,"kind":"counter"|"gauge"},..],
    ///  "samples":[[t_s, v0, v1, ..], ..]}
    std::string json() const
    {
        const std::lock_guard<std::mutex> lock(rows_mutex_);
        std::string out;
        out.reserve(256 + rows_.size() * (16 * (columns_.size() + 1)));
        char buf[64];
        out += "{\"requested_interval_ms\": ";
        std::snprintf(buf, sizeof buf, "%.6g",
                      requested_interval_s_ * 1e3);
        out += buf;
        out += ", \"interval_ms\": ";
        std::snprintf(buf, sizeof buf, "%.6g", interval_s_ * 1e3);
        out += buf;
        out += ", \"columns\": [";
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            if (c != 0)
                out += ", ";
            out += "{\"name\": \"";
            out += columns_[c].name;
            out += "\", \"kind\": \"";
            out += columns_[c].counter ? "counter" : "gauge";
            out += "\"}";
        }
        out += "], \"samples\": [";
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            out += r == 0 ? "\n  [" : ",\n  [";
            std::snprintf(buf, sizeof buf, "%.6f",
                          rows_[r].t_s);
            out += buf;
            for (double v : rows_[r].values) {
                out += ", ";
                if (!(v == v) || v > 1e300 || v < -1e300)
                    v = 0;
                std::snprintf(buf, sizeof buf, "%.6g", v);
                out += buf;
            }
            out += "]";
        }
        out += rows_.empty() ? "]}" : "\n]}";
        return out;
    }

    /// Counter tracks for the Chrome-trace export.  Counters are
    /// emitted as per-interval rates (per second) — the staircase of
    /// a cumulative counter is useless as a Perfetto graph — and
    /// gauges as their raw level.
    std::vector<counter_series> counter_tracks() const
    {
        const std::lock_guard<std::mutex> lock(rows_mutex_);
        std::vector<counter_series> out;
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            counter_series cs;
            cs.name = columns_[c].counter
                          ? columns_[c].name + "_per_sec"
                          : columns_[c].name;
            for (std::size_t r = 0; r < rows_.size(); ++r) {
                double v = rows_[r].values[c];
                if (columns_[c].counter) {
                    if (r == 0)
                        continue;
                    const double dt =
                        rows_[r].t_s - rows_[r - 1].t_s;
                    const double dv =
                        v - rows_[r - 1].values[c];
                    v = dt > 0 ? dv / dt : 0.0;
                }
                cs.points.emplace_back(rows_[r].ts_ns, v);
            }
            if (!cs.points.empty())
                out.push_back(std::move(cs));
        }
        return out;
    }

private:
    struct column {
        std::string name;
        bool counter;
        std::function<double()> fn;
    };

    struct row {
        std::uint64_t ts_ns;
        double t_s;
        std::vector<double> values;
    };

    void sample_once()
    {
        row r;
        r.ts_ns = now_ns();
        r.t_s = static_cast<double>(r.ts_ns - base_ns_) * 1e-9;
        r.values.reserve(columns_.size());
        for (const auto &c : columns_)
            r.values.push_back(c.fn ? c.fn() : 0.0);
        const std::lock_guard<std::mutex> lock(rows_mutex_);
        rows_.push_back(std::move(r));
    }

    double interval_s_;
    double requested_interval_s_;
    std::uint64_t base_ns_ = 0;
    std::vector<column> columns_;
    /// Appended on the ticker thread; the mutex makes samples()/json()
    /// callable while sampling is live (ticks are milliseconds apart,
    /// so the lock is never contended in any way that matters).
    mutable std::mutex rows_mutex_;
    std::vector<row> rows_;
    std::unique_ptr<periodic_ticker> ticker_;
};

} // namespace klsm::trace
