#pragma once

// Thread pinning.
//
// One pinned order: the CPUs of the calling thread's affinity mask in
// ascending order.  The harnesses pin worker t to the (t mod n)-th CPU
// of that order, so a run started under `taskset -c 2,3` (or a cgroup
// cpuset) pins only inside its mask.  Pinning makes runs repeat
// (arXiv:1603.05047); no figure reproduced here varies placement.
//
//   none      — no pinning at all (the scheduler decides); the default.
//   affinity  — worker t on the (t mod n)-th CPU of the mask.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace klsm::topo {

enum class pin_policy { none, affinity };

inline const char *pin_policy_name(pin_policy p) {
    return p == pin_policy::affinity ? "affinity" : "none";
}

inline std::optional<pin_policy> parse_pin_policy(const std::string &s) {
    if (s == "none")
        return pin_policy::none;
    if (s == "affinity")
        return pin_policy::affinity;
    return std::nullopt;
}

/// The CPUs of the calling thread's affinity mask, ascending.  Empty
/// where the platform cannot say.
inline std::vector<std::uint32_t> affinity_cpus() {
    std::vector<std::uint32_t> out;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return out;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            out.push_back(static_cast<std::uint32_t>(c));
#endif
    return out;
}

/// The OS cpu ids a policy assigns, in placement order.  `none` returns
/// an empty vector: harnesses treat that as "do not pin".
inline std::vector<std::uint32_t> cpu_order(pin_policy policy) {
    if (policy == pin_policy::none)
        return {};
    return affinity_cpus();
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
