#pragma once

// Workload registry: the API that makes benchmark workloads plugins
// instead of branches of an if/else chain in klsm_bench.cpp.
//
// Each workload contributes one `workload_entry`:
//
//   - `register_flags(cli)` adds the workload's own flags inside a
//     named flag group, so `--help` shows them under the workload's
//     heading and tests can assert group isolation;
//   - `configure(cli, core)` parses and validates those flags into the
//     workload's private config struct (closures over a shared_ptr
//     carry it to `run`), printing to stderr and returning false on a
//     usage error;
//   - `annotate_meta(core, meta)` records the workload's settings in
//     the report's meta block (only applied for single-workload runs —
//     with a comma selection the per-record "workload" field
//     disambiguates instead);
//   - `run(core, json)` executes the sweep and appends records,
//     returning the process exit status (0 ok, 1 soft failure such as
//     a quality-bound violation, 2 usage/internal error);
//   - `gates` declares which record fields the regression gate
//     (scripts/compare_bench.py) diffs, in which direction and under
//     which tolerance.  klsm_bench writes the selected workloads'
//     declarations into the report's `gates` meta block (`gates_json`),
//     so the differ holds no per-workload code.
//
// `--workload` resolves through the registry: unknown names fail with
// the full registered list.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/bench_config.hpp"
#include "harness/reporter.hpp"
#include "util/cli.hpp"

namespace klsm::bench {

/// One metric a workload's records are diffed on (README "Regression
/// gate").  Paths are dotted record paths ("service.achieved_rate").
/// Every member has a default, so a designated initializer names only
/// what it sets.
struct metric_gate {
    std::string path{};
    /// Display unit: "ops/s", "s", "B", "ns", "bool", ...
    std::string unit{};
    /// "higher" or "lower" is better; for a verdict, "higher" means
    /// true is the passing value.
    std::string better{};
    /// "scalar" (a number; negative means not measured), "verdict" (a
    /// bool: a pass -> fail flip regresses) or "latency" (a block
    /// shaped like a record's `latency` object).
    std::string kind = "scalar";
    /// The differ's tolerance class ("rate", "search", "rss",
    /// "latency"), or "advisory": printed, never a regression.
    std::string tolerance = "rate";
    /// Absolute worsening, in `unit`, below which a scalar never
    /// regresses (0 = none).
    double floor = 0;
    /// Path of a bool that must hold on both sides; otherwise the
    /// finding drops to a warning.  Written as "requires".
    std::string require{};
    /// Path that must be equal on both sides for the gate to apply.
    std::string match{};
    /// Paths printed beside the metric: head-to-head pairs and
    /// verdict flips.
    std::vector<std::string> context{};

    std::string json() const {
        json_record r;
        r.set("path", path);
        r.set("unit", unit);
        r.set("better", better);
        r.set("kind", kind);
        r.set("tolerance", tolerance);
        if (floor > 0)
            r.set("floor", floor);
        if (!require.empty())
            r.set("requires", require);
        if (!match.empty())
            r.set("match", match);
        if (!context.empty()) {
            std::string list = "[";
            for (const auto &c : context)
                list += (list.size() > 1 ? ",\"" : "\"") + c + '"';
            r.set_raw("context", list + "]");
        }
        std::ostringstream out;
        r.write(out);
        return out.str();
    }
};

struct workload_entry {
    std::string name;
    /// One-line description, shown in `--help` group headings.
    std::string summary;
    /// True when the workload exercises allocation churn enough that
    /// `--reclaim auto` should resolve to the full reclamation tier
    /// rather than none.  Keeps policy defaults out of string
    /// comparisons against workload names.
    bool reclaim_soak = false;

    std::function<void(cli_parser &)> register_flags;
    std::function<bool(const cli_parser &, const core_config &)> configure;
    std::function<void(const core_config &, json_record &)> annotate_meta;
    std::function<int(const core_config &, json_reporter &)> run;
    std::vector<metric_gate> gates;
};

/// The report's `gates` meta block: each selected workload's gate
/// declarations, keyed by workload name.
inline std::string
gates_json(const std::vector<const workload_entry *> &selected) {
    json_record block;
    for (const auto *e : selected) {
        std::string list = "[";
        for (const auto &g : e->gates) {
            if (list.size() > 1)
                list += ',';
            list += g.json();
        }
        block.set_raw(e->name, list + "]");
    }
    std::ostringstream out;
    block.write(out);
    return out.str();
}

class workload_registry {
public:
    /// Register a workload.  Returns false (and registers nothing) on
    /// an empty or duplicate name.
    bool add(workload_entry entry) {
        if (entry.name.empty() || index_.count(entry.name))
            return false;
        index_[entry.name] = entries_.size();
        entries_.push_back(std::move(entry));
        return true;
    }

    const workload_entry *find(const std::string &name) const {
        auto it = index_.find(name);
        return it == index_.end() ? nullptr : &entries_[it->second];
    }

    /// Registered names, in registration order.
    std::vector<std::string> names() const {
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto &e : entries_)
            out.push_back(e.name);
        return out;
    }

    std::string names_joined(const char *sep = ", ") const {
        std::string out;
        for (const auto &e : entries_) {
            if (!out.empty())
                out += sep;
            out += e.name;
        }
        return out;
    }

    /// Resolve a comma-separated selection ("bnb,des") to entries, in
    /// selection order with duplicates dropped.  On any unknown name
    /// returns an empty vector and fills `error` with a message that
    /// lists every registered workload.
    std::vector<const workload_entry *>
    resolve(const std::string &selection, std::string *error) const {
        std::vector<const workload_entry *> out;
        std::stringstream ss(selection);
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            if (tok.empty())
                continue;
            const workload_entry *e = find(tok);
            if (!e) {
                if (error)
                    *error = "unknown workload: " + tok +
                             " (registered: " + names_joined() + ")";
                return {};
            }
            if (std::find(out.begin(), out.end(), e) == out.end())
                out.push_back(e);
        }
        if (out.empty() && error)
            *error = "no workload selected (registered: " + names_joined() +
                     ")";
        return out;
    }

    /// Add every workload's flags to `cli`, each under its own group
    /// heading so `--help` attributes flags to their owner.
    void register_flags(cli_parser &cli) const {
        for (const auto &e : entries_) {
            if (!e.register_flags)
                continue;
            std::string heading = e.name + " workload";
            if (!e.summary.empty())
                heading += " — " + e.summary;
            cli.begin_group(heading);
            e.register_flags(cli);
        }
    }

    /// The group heading `register_flags` files a workload's flags
    /// under (tests use this to check group isolation).
    static std::string group_title(const workload_entry &e) {
        return e.summary.empty() ? e.name + " workload"
                                 : e.name + " workload — " + e.summary;
    }

private:
    std::vector<workload_entry> entries_;
    std::map<std::string, std::size_t> index_;
};

} // namespace klsm::bench
