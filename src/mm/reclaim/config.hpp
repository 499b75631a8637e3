#pragma once

// Configuration for the memory-reclamation tier (src/mm/reclaim/).
//
// This header is intentionally dependency-free: mm/placement.hpp embeds
// a `reclaim_config` inside `mem_placement` so the reclamation settings
// travel with the placement through every pool constructor without
// touching a single queue-layer signature.
//
// One mechanism on top of the pools' sweep recycling (paper Section
// 4.4): epoch-style chunk reclamation.  When every item in a full arena
// chunk is observed dead, the chunk is quarantined (removed from
// circulation), and after a grace period of further maintenance
// inspections its pages are returned to the OS with
// madvise(MADV_DONTNEED).  The virtual range stays mapped, so the
// type-stability invariant the versioned items rely on is preserved: a
// straggler reading a reclaimed item faults in a zero page, sees
// version 0 (even = dead), and fails its CAS exactly as it would
// against any other freed item.

#include <cstddef>
#include <cstdint>

namespace klsm::mm::reclaim {

enum class reclaim_policy : std::uint8_t {
    none, ///< seed behavior: pools only grow, sweep-only recycling
    full, ///< sweep recycling + chunk quarantine and madvise shrink
};

inline const char *reclaim_policy_name(reclaim_policy p) {
    switch (p) {
    case reclaim_policy::none: return "none";
    case reclaim_policy::full: return "full";
    }
    return "?";
}

/// Parse a policy name; returns false (and leaves `out` untouched) on
/// an unknown name.  "auto" is resolved by the caller (bench CLI), not
/// here.
inline bool parse_reclaim_policy(const char *s, reclaim_policy &out) {
    const auto eq = [s](const char *t) {
        const char *a = s;
        while (*a && *t && *a == *t) { ++a; ++t; }
        return *a == '\0' && *t == '\0';
    };
    if (eq("none")) { out = reclaim_policy::none; return true; }
    if (eq("full")) { out = reclaim_policy::full; return true; }
    return false;
}

struct reclaim_config {
    reclaim_policy policy = reclaim_policy::none;
    /// A maintenance step (one chunk inspected for quarantine/release)
    /// runs every `maintenance_period` pool allocations.
    std::uint32_t maintenance_period = 512;
    /// Consecutive maintenance inspections a quarantined chunk must
    /// survive before its pages are released.  The grace period lets
    /// stale takers still holding a reference into the chunk finish:
    /// their take CAS fails, but a CAS faults its page in for writing,
    /// so on a released page it would commit again the memory the
    /// shrink just returned.
    /// quiescent_shrink() bypasses it because its precondition (no
    /// concurrent operations) rules such takers out.
    std::uint32_t grace_inspections = 2;

    bool shrink_enabled() const { return policy == reclaim_policy::full; }

    friend bool operator==(const reclaim_config &,
                           const reclaim_config &) = default;
};

} // namespace klsm::mm::reclaim

namespace klsm::mm {
// Convenience aliases: the rest of the tree spells these mm::.
using reclaim::reclaim_config;
using reclaim::reclaim_policy;
} // namespace klsm::mm
