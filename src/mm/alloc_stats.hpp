#pragma once

// Allocation-placement telemetry for the pool layer.
//
// Same shape as the src/stats/ latency recorder: every pool owns one
// cache-line-aligned counter block that only its owning thread
// increments (relaxed atomics, so a merge pass — or a curious test —
// can read mid-run without a data race or a shared cache line on the
// allocation path).  The queue aggregates all of its pools' counters
// into one `memory_stats` snapshot after a run; klsm_bench serializes
// that as the `memory` JSON object when --alloc-stats is on.
//
// What is counted, per pool family (item pools vs block pools):
//   * chunks / bytes        — arena chunks or blocks actually allocated
//                             from the OS, and their byte footprint;
//   * reuse_hits            — allocations satisfied by recycling
//                             (item-pool sweep hit, block-pool bucket
//                             hit);
//   * fresh_allocs          — allocations that had to create storage
//                             (block pools allocate one block per
//                             fresh acquire, so there it equals
//                             chunks);
//   * growth_beyond_bound   — block allocations beyond the fourth live
//                             block of a level, the paper's bound
//                             (Section 4.4).
//                             Structural for DistLSM pools (tests assert
//                             it stays 0 there); for shared-LSM pools
//                             the conservative torn-scan reclamation
//                             check may refuse a recyclable block under
//                             churn, so the safety valve firing there is
//                             by design and merely counted.  Always 0
//                             for item pools (the paper bounds blocks,
//                             not items);
//   * bound/prefaulted_chunks — how many chunks the placement layer
//                             actually mbind()-ed / pre-faulted, so a
//                             silent fallback is visible in the report;
//   * resident histograms   — where the pages ended up, from the
//                             move_pages(2) query (quiescent-only:
//                             regions are walked without locks, so
//                             query after workers have joined).

#include <atomic>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

#include "mm/placement.hpp"
#include "util/align.hpp"

namespace klsm::mm {

/// Plain (non-atomic) copy of one pool's counters; merges additively.
struct pool_alloc_snapshot {
    std::uint64_t chunks = 0;
    std::uint64_t bytes = 0;
    /// Sweep hits only — allocations satisfied by the owner's linear
    /// scan over its own dead items (or a block-pool bucket hit).  The
    /// freelist tier counts separately so its hit rate is observable
    /// per pool (ISSUE 7 satellite: the two used to be conflated).
    std::uint64_t reuse_hits = 0;
    std::uint64_t fresh_allocs = 0;
    std::uint64_t growth_beyond_bound = 0;
    std::uint64_t bound_chunks = 0;
    std::uint64_t prefaulted_chunks = 0;
    // Reclamation tier (src/mm/reclaim/):
    std::uint64_t freelist_hits = 0;  ///< allocations from freelist pops
    std::uint64_t freelist_drops = 0; ///< popped nodes discarded (ghosts)
    std::uint64_t reclaimed_chunks = 0; ///< currently-released (gauge)
    std::uint64_t released_bytes = 0;   ///< currently-released (gauge)
    std::uint64_t shrink_events = 0;    ///< cumulative page releases
    std::uint64_t reactivated_chunks = 0; ///< released chunks regrown
    std::uint64_t huge_chunks = 0;      ///< MAP_HUGETLB-backed chunks
    std::uint64_t thp_chunks = 0;       ///< MADV_HUGEPAGE-advised chunks

    /// Fraction of allocations satisfied by recycling of either kind
    /// (the historical meaning of this rate, now counting both tiers).
    double reuse_hit_rate() const {
        const std::uint64_t total =
            reuse_hits + freelist_hits + fresh_allocs;
        return total ? static_cast<double>(reuse_hits + freelist_hits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /// Fraction of allocations satisfied by the freelist tier alone.
    double freelist_hit_rate() const {
        const std::uint64_t total =
            reuse_hits + freelist_hits + fresh_allocs;
        return total ? static_cast<double>(freelist_hits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    void merge(const pool_alloc_snapshot &o) {
        chunks += o.chunks;
        bytes += o.bytes;
        reuse_hits += o.reuse_hits;
        fresh_allocs += o.fresh_allocs;
        growth_beyond_bound += o.growth_beyond_bound;
        bound_chunks += o.bound_chunks;
        prefaulted_chunks += o.prefaulted_chunks;
        freelist_hits += o.freelist_hits;
        freelist_drops += o.freelist_drops;
        reclaimed_chunks += o.reclaimed_chunks;
        released_bytes += o.released_bytes;
        shrink_events += o.shrink_events;
        reactivated_chunks += o.reactivated_chunks;
        huge_chunks += o.huge_chunks;
        thp_chunks += o.thp_chunks;
    }
};

/// Owner-increment counter block, one per pool.  Aligned so two pools'
/// counters never share a cache line; increments are relaxed stores by
/// the owning thread, reads may come from any thread.
struct alignas(cache_line_size) alloc_counters {
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> reuse_hits{0};
    std::atomic<std::uint64_t> fresh_allocs{0};
    std::atomic<std::uint64_t> growth_beyond_bound{0};
    std::atomic<std::uint64_t> bound_chunks{0};
    std::atomic<std::uint64_t> prefaulted_chunks{0};
    std::atomic<std::uint64_t> freelist_hits{0};
    std::atomic<std::uint64_t> freelist_drops{0};
    std::atomic<std::uint64_t> reclaimed_chunks{0};
    std::atomic<std::uint64_t> released_bytes{0};
    std::atomic<std::uint64_t> shrink_events{0};
    std::atomic<std::uint64_t> reactivated_chunks{0};
    std::atomic<std::uint64_t> huge_chunks{0};
    std::atomic<std::uint64_t> thp_chunks{0};

    void count_chunk(std::size_t chunk_bytes, chunk_placement how) {
        chunks.fetch_add(1, std::memory_order_relaxed);
        bytes.fetch_add(chunk_bytes, std::memory_order_relaxed);
        if (how.bound)
            bound_chunks.fetch_add(1, std::memory_order_relaxed);
        if (how.prefaulted)
            prefaulted_chunks.fetch_add(1, std::memory_order_relaxed);
        if (how.huge)
            huge_chunks.fetch_add(1, std::memory_order_relaxed);
        if (how.thp)
            thp_chunks.fetch_add(1, std::memory_order_relaxed);
    }
    void count_reuse_hit() {
        reuse_hits.fetch_add(1, std::memory_order_relaxed);
    }
    void count_fresh() {
        fresh_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    void count_growth() {
        growth_beyond_bound.fetch_add(1, std::memory_order_relaxed);
    }
    void count_freelist_hit() {
        freelist_hits.fetch_add(1, std::memory_order_relaxed);
    }
    void count_freelist_drop() {
        freelist_drops.fetch_add(1, std::memory_order_relaxed);
    }
    /// One chunk's pages returned to the OS.  `reclaimed_chunks` /
    /// `released_bytes` are gauges (current state, so the schema
    /// invariant reclaimed_chunks <= chunks always holds);
    /// `shrink_events` counts every release cumulatively.
    void count_reclaim(std::size_t chunk_bytes) {
        reclaimed_chunks.fetch_add(1, std::memory_order_relaxed);
        released_bytes.fetch_add(chunk_bytes, std::memory_order_relaxed);
        shrink_events.fetch_add(1, std::memory_order_relaxed);
    }
    /// A released chunk brought back into service (pages will refault).
    void count_reactivate(std::size_t chunk_bytes) {
        reclaimed_chunks.fetch_sub(1, std::memory_order_relaxed);
        released_bytes.fetch_sub(chunk_bytes, std::memory_order_relaxed);
        reactivated_chunks.fetch_add(1, std::memory_order_relaxed);
    }

    pool_alloc_snapshot snapshot() const {
        pool_alloc_snapshot s;
        s.chunks = chunks.load(std::memory_order_relaxed);
        s.bytes = bytes.load(std::memory_order_relaxed);
        s.reuse_hits = reuse_hits.load(std::memory_order_relaxed);
        s.fresh_allocs = fresh_allocs.load(std::memory_order_relaxed);
        s.growth_beyond_bound =
            growth_beyond_bound.load(std::memory_order_relaxed);
        s.bound_chunks = bound_chunks.load(std::memory_order_relaxed);
        s.prefaulted_chunks =
            prefaulted_chunks.load(std::memory_order_relaxed);
        s.freelist_hits = freelist_hits.load(std::memory_order_relaxed);
        s.freelist_drops = freelist_drops.load(std::memory_order_relaxed);
        s.reclaimed_chunks =
            reclaimed_chunks.load(std::memory_order_relaxed);
        s.released_bytes = released_bytes.load(std::memory_order_relaxed);
        s.shrink_events = shrink_events.load(std::memory_order_relaxed);
        s.reactivated_chunks =
            reactivated_chunks.load(std::memory_order_relaxed);
        s.huge_chunks = huge_chunks.load(std::memory_order_relaxed);
        s.thp_chunks = thp_chunks.load(std::memory_order_relaxed);
        return s;
    }
};

/// One queue's aggregated memory telemetry: item pools, DistLSM block
/// pools, and shared-LSM block pools summed separately (the paper's
/// four-per-level bound is structural only for the DistLSM family, so
/// lumping them together would hide which valve fired), plus — when
/// requested and queryable — a resident-node histogram per family.
struct memory_stats {
    pool_alloc_snapshot items;
    pool_alloc_snapshot dist_blocks;
    pool_alloc_snapshot shared_blocks;
    resident_histogram items_resident;
    resident_histogram dist_blocks_resident;
    resident_histogram shared_blocks_resident;
    /// True iff the residency query was requested and the platform can
    /// answer it; the histograms are meaningful only then.
    bool resident_queried = false;

    void merge(const memory_stats &o) {
        items.merge(o.items);
        dist_blocks.merge(o.dist_blocks);
        shared_blocks.merge(o.shared_blocks);
        items_resident.merge(o.items_resident);
        dist_blocks_resident.merge(o.dist_blocks_resident);
        shared_blocks_resident.merge(o.shared_blocks_resident);
        resident_queried = resident_queried || o.resident_queried;
    }
};

namespace detail {

inline void pool_json(std::ostringstream &os, const char *name,
                      const pool_alloc_snapshot &p,
                      const resident_histogram &resident,
                      bool resident_queried) {
    os << '"' << name << "\":{"
       << "\"chunks\":" << p.chunks << ",\"bytes\":" << p.bytes
       << ",\"reuse_hits\":" << p.reuse_hits
       << ",\"fresh_allocs\":" << p.fresh_allocs << ",\"reuse_hit_rate\":"
       << std::setprecision(6) << p.reuse_hit_rate()
       << ",\"growth_beyond_bound\":" << p.growth_beyond_bound
       << ",\"bound_chunks\":" << p.bound_chunks
       << ",\"prefaulted_chunks\":" << p.prefaulted_chunks
       << ",\"freelist_hits\":" << p.freelist_hits
       << ",\"freelist_drops\":" << p.freelist_drops
       << ",\"freelist_hit_rate\":" << std::setprecision(6)
       << p.freelist_hit_rate()
       << ",\"reclaimed_chunks\":" << p.reclaimed_chunks
       << ",\"released_bytes\":" << p.released_bytes
       << ",\"shrink_events\":" << p.shrink_events
       << ",\"reactivated_chunks\":" << p.reactivated_chunks
       << ",\"huge_chunks\":" << p.huge_chunks
       << ",\"thp_chunks\":" << p.thp_chunks;
    if (resident_queried) {
        os << ",\"resident_nodes\":[";
        bool first = true;
        for (const auto &[node, pages] : resident.pairs()) {
            os << (first ? "" : ",") << '[' << node << ',' << pages
               << ']';
            first = false;
        }
        os << ']' << ",\"resident_unknown_pages\":"
           << resident.unknown_pages();
    }
    os << '}';
}

} // namespace detail

/// Serialize a memory_stats as the `memory` JSON object klsm_bench
/// embeds per record (README "Memory placement" documents the schema).
inline std::string memory_json(const memory_stats &m,
                               numa_alloc_policy policy) {
    std::ostringstream os;
    os << "{\"policy\":\"" << numa_alloc_policy_name(policy) << '"'
       << ",\"resident_queried\":"
       << (m.resident_queried ? "true" : "false") << ",\"pools\":{";
    detail::pool_json(os, "items", m.items, m.items_resident,
                      m.resident_queried);
    os << ',';
    detail::pool_json(os, "dist_blocks", m.dist_blocks,
                      m.dist_blocks_resident, m.resident_queried);
    os << ',';
    detail::pool_json(os, "shared_blocks", m.shared_blocks,
                      m.shared_blocks_resident, m.resident_queried);
    os << "}}";
    return os.str();
}

} // namespace klsm::mm
