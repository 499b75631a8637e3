#pragma once

// Configuration for the memory-reclamation tier (src/mm/reclaim/).
//
// This header is intentionally dependency-free: mm/placement.hpp embeds
// a `reclaim_config` inside `mem_placement` so the reclamation settings
// travel with the placement through every pool constructor without
// touching a single queue-layer signature.
//
// One rule on top of the pools' sweep recycling (paper Section 4.4):
// pages go back to the OS only in quiescent_shrink(), which its caller
// runs with no operation in flight.  The item pool releases each full
// arena chunk whose items are all dead; the block pools release the
// entry pages of their free blocks.  Release is
// madvise(MADV_DONTNEED): the virtual range stays mapped, so the
// type-stability invariant the versioned items rely on is preserved: a
// stale reference read later faults in a zero page, sees version 0
// (even = dead), and fails its CAS exactly as it would against any
// other freed item.

#include <cstdint>

namespace klsm::mm::reclaim {

enum class reclaim_policy : std::uint8_t {
    none, ///< seed behavior: pools only grow, sweep-only recycling
    full, ///< sweep recycling + page release at quiescent_shrink()
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
