#pragma once

// Thread-placement policies over a discovered topology.
//
// A policy is a deterministic ordering of the online logical CPUs; the
// harnesses pin worker t to the t-th CPU of the order (mod size).  The
// two non-trivial policies are the standard affinity shapes:
//
//   compact   — pack threads as close together as possible: fill every
//               hardware thread of a core, then the next core of the same
//               package, then the next package.  Maximizes cache sharing,
//               measures single-socket behavior first.
//   scatter   — spread threads as far apart as possible: round-robin
//               across packages, physical cores before SMT siblings.
//               Maximizes aggregate cache/memory bandwidth, exposes
//               cross-socket traffic at low thread counts.
//
// `none` performs no pinning at all (the scheduler decides), which is
// the pre-topology behavior and the default everywhere.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "topo/topology.hpp"

namespace klsm::topo {

enum class pin_policy { none, compact, scatter };

inline const char *pin_policy_name(pin_policy p) {
    switch (p) {
    case pin_policy::none: return "none";
    case pin_policy::compact: return "compact";
    case pin_policy::scatter: return "scatter";
    }
    return "none";
}

inline std::optional<pin_policy> parse_pin_policy(const std::string &s) {
    if (s == "none")
        return pin_policy::none;
    if (s == "compact")
        return pin_policy::compact;
    if (s == "scatter")
        return pin_policy::scatter;
    return std::nullopt;
}

/// The OS cpu ids a policy assigns, in placement order.  `none` returns
/// an empty vector: harnesses treat that as "do not pin".
inline std::vector<std::uint32_t> cpu_order(const topology &t,
                                            pin_policy policy) {
    std::vector<std::uint32_t> out;
    if (policy == pin_policy::none)
        return out;

    if (policy == pin_policy::compact) {
        // (package, core, smt_rank) lexicographic.
        std::vector<logical_cpu> v = t.cpus();
        std::sort(v.begin(), v.end(),
                  [](const logical_cpu &a, const logical_cpu &b) {
                      if (a.package != b.package)
                          return a.package < b.package;
                      if (a.core != b.core)
                          return a.core < b.core;
                      if (a.smt_rank != b.smt_rank)
                          return a.smt_rank < b.smt_rank;
                      return a.os_id < b.os_id;
                  });
        for (const auto &c : v)
            out.push_back(c.os_id);
        return out;
    }

    // scatter: per-package lists ordered physical-cores-first
    // (smt_rank, core), then a round-robin merge across packages.
    std::vector<std::uint32_t> pkg_ids;
    for (const auto &c : t.cpus())
        if (std::find(pkg_ids.begin(), pkg_ids.end(), c.package) ==
            pkg_ids.end())
            pkg_ids.push_back(c.package);
    std::sort(pkg_ids.begin(), pkg_ids.end());
    std::vector<std::vector<logical_cpu>> per_pkg(pkg_ids.size());
    for (const auto &c : t.cpus()) {
        const auto idx = static_cast<std::size_t>(
            std::find(pkg_ids.begin(), pkg_ids.end(), c.package) -
            pkg_ids.begin());
        per_pkg[idx].push_back(c);
    }
    for (auto &v : per_pkg)
        std::sort(v.begin(), v.end(),
                  [](const logical_cpu &a, const logical_cpu &b) {
                      if (a.smt_rank != b.smt_rank)
                          return a.smt_rank < b.smt_rank;
                      if (a.core != b.core)
                          return a.core < b.core;
                      return a.os_id < b.os_id;
                  });
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (const auto &v : per_pkg) {
            if (i < v.size()) {
                out.push_back(v[i].os_id);
                any = true;
            }
        }
        if (!any)
            break;
    }
    return out;
}

/// Convenience: policy order by name; nullopt for an unknown name.
inline std::optional<std::vector<std::uint32_t>>
cpu_order(const topology &t, const std::string &policy_name) {
    const auto p = parse_pin_policy(policy_name);
    if (!p)
        return std::nullopt;
    return cpu_order(t, *p);
}

/// Pin the calling thread to one OS cpu.  Returns true on success; on
/// non-Linux platforms (or when the cpu id is stale) it is a no-op that
/// returns false, so callers can treat pinning as best-effort.
inline bool pin_self(std::uint32_t os_cpu) {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(os_cpu), &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
    (void)os_cpu;
    return false;
#endif
}

/// The OS cpu the calling thread is currently running on, or nullopt
/// when the platform cannot say.
inline std::optional<std::uint32_t> current_cpu() {
#if defined(__linux__)
    const int cpu = sched_getcpu();
    if (cpu >= 0)
        return static_cast<std::uint32_t>(cpu);
#endif
    return std::nullopt;
}

} // namespace klsm::topo
