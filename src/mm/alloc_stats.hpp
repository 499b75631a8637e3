#pragma once

// Allocation telemetry for the pool layer.
//
// Same shape as the src/stats/ latency recorder: every pool owns one
// cache-line-aligned counter block that one thread at a time increments
// (relaxed loads and stores, so a merge pass — or a curious test — can
// read mid-run without a data race, and the allocation path pays no
// locked instruction and shares no cache line).  The queue aggregates
// all of its pools' counters into one `memory_stats` snapshot after a
// run; klsm_bench serializes that as the `memory` JSON object when
// --alloc-stats is on.
//
// What is counted, per pool family (item pools vs block pools):
//   * chunks / bytes        — arena chunks or blocks actually allocated
//                             from the OS, and their byte footprint;
//   * reuse_hits            — allocations satisfied by recycling
//                             (item-pool sweep hit or revived cold
//                             chunk, block-pool bucket hit);
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
//   * page_aligned_chunks   — chunks allocated under a shrinking
//                             placement, as whole pages of their own
//                             (the shrink tier's precondition,
//                             mm/placement.hpp).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

#include "util/align.hpp"

namespace klsm::mm {

/// Plain (non-atomic) copy of one pool's counters; merges additively.
struct pool_alloc_snapshot {
    std::uint64_t chunks = 0;
    std::uint64_t bytes = 0;
    /// Allocations satisfied by the owner's sweep over its own dead
    /// items (or a block-pool bucket hit).
    std::uint64_t reuse_hits = 0;
    std::uint64_t fresh_allocs = 0;
    std::uint64_t growth_beyond_bound = 0;
    std::uint64_t page_aligned_chunks = 0;
    // Reclamation tier (src/mm/reclaim/):
    std::uint64_t reclaimed_chunks = 0; ///< currently-released (gauge)
    std::uint64_t released_bytes = 0;   ///< currently-released (gauge)
    std::uint64_t shrink_events = 0;    ///< cumulative page releases
    std::uint64_t reactivated_chunks = 0; ///< released chunks regrown

    /// Fraction of allocations satisfied by recycling.
    double reuse_hit_rate() const {
        const std::uint64_t total = reuse_hits + fresh_allocs;
        return total ? static_cast<double>(reuse_hits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    void merge(const pool_alloc_snapshot &o) {
        chunks += o.chunks;
        bytes += o.bytes;
        reuse_hits += o.reuse_hits;
        fresh_allocs += o.fresh_allocs;
        growth_beyond_bound += o.growth_beyond_bound;
        page_aligned_chunks += o.page_aligned_chunks;
        reclaimed_chunks += o.reclaimed_chunks;
        released_bytes += o.released_bytes;
        shrink_events += o.shrink_events;
        reactivated_chunks += o.reactivated_chunks;
    }
};

/// Add `delta` (modulo 2^64) to a counter with a relaxed load and a
/// relaxed store instead of a locked read-modify-write.  Precondition:
/// no other thread writes `c` at the same time.  Every counter block
/// has one writer at a time — the pool's owning thread, the settle
/// pool's claim holder (successive holders are ordered by the claim's
/// acquire and release), or a quiescent shrink — so no increment is
/// lost.  Readers on other threads may see a stale value, never a torn
/// one.
inline void owner_add(std::atomic<std::uint64_t> &c, std::uint64_t delta) {
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
}

/// Owner-increment counter block, one per pool.  Aligned so two pools'
/// counters never share a cache line; increments are relaxed stores by
/// the one writer (owner_add), reads may come from any thread.
struct alignas(cache_line_size) alloc_counters {
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> reuse_hits{0};
    std::atomic<std::uint64_t> fresh_allocs{0};
    std::atomic<std::uint64_t> growth_beyond_bound{0};
    std::atomic<std::uint64_t> page_aligned_chunks{0};
    std::atomic<std::uint64_t> reclaimed_chunks{0};
    std::atomic<std::uint64_t> released_bytes{0};
    std::atomic<std::uint64_t> shrink_events{0};
    std::atomic<std::uint64_t> reactivated_chunks{0};

    void count_chunk(std::size_t chunk_bytes, bool page_aligned) {
        owner_add(chunks, 1);
        owner_add(bytes, chunk_bytes);
        if (page_aligned)
            owner_add(page_aligned_chunks, 1);
    }
    void count_reuse_hit() { owner_add(reuse_hits, 1); }
    void count_fresh() { owner_add(fresh_allocs, 1); }
    void count_growth() { owner_add(growth_beyond_bound, 1); }
    /// One chunk's pages returned to the OS.  `reclaimed_chunks` /
    /// `released_bytes` are gauges (current state, so the schema
    /// invariant reclaimed_chunks <= chunks always holds);
    /// `shrink_events` counts every release cumulatively.
    void count_reclaim(std::size_t chunk_bytes) {
        owner_add(reclaimed_chunks, 1);
        owner_add(released_bytes, chunk_bytes);
        owner_add(shrink_events, 1);
    }
    /// A released chunk brought back into service (pages will refault).
    void count_reactivate(std::size_t chunk_bytes) {
        // The gauges fall: adding 2^64 - n subtracts n.
        owner_add(reclaimed_chunks, -std::uint64_t{1});
        owner_add(released_bytes, -static_cast<std::uint64_t>(chunk_bytes));
        owner_add(reactivated_chunks, 1);
    }

    pool_alloc_snapshot snapshot() const {
        pool_alloc_snapshot s;
        s.chunks = chunks.load(std::memory_order_relaxed);
        s.bytes = bytes.load(std::memory_order_relaxed);
        s.reuse_hits = reuse_hits.load(std::memory_order_relaxed);
        s.fresh_allocs = fresh_allocs.load(std::memory_order_relaxed);
        s.growth_beyond_bound =
            growth_beyond_bound.load(std::memory_order_relaxed);
        s.page_aligned_chunks =
            page_aligned_chunks.load(std::memory_order_relaxed);
        s.reclaimed_chunks =
            reclaimed_chunks.load(std::memory_order_relaxed);
        s.released_bytes = released_bytes.load(std::memory_order_relaxed);
        s.shrink_events = shrink_events.load(std::memory_order_relaxed);
        s.reactivated_chunks =
            reactivated_chunks.load(std::memory_order_relaxed);
        return s;
    }
};

/// One queue's aggregated memory telemetry: item pools, DistLSM block
/// pools, and shared-LSM block pools summed separately (the paper's
/// four-per-level bound is structural only for the DistLSM family, so
/// lumping them together would hide which valve fired).
struct memory_stats {
    pool_alloc_snapshot items;
    pool_alloc_snapshot dist_blocks;
    pool_alloc_snapshot shared_blocks;

    void merge(const memory_stats &o) {
        items.merge(o.items);
        dist_blocks.merge(o.dist_blocks);
        shared_blocks.merge(o.shared_blocks);
    }
};

namespace detail {

inline void pool_json(std::ostringstream &os, const char *name,
                      const pool_alloc_snapshot &p) {
    os << '"' << name << "\":{"
       << "\"chunks\":" << p.chunks << ",\"bytes\":" << p.bytes
       << ",\"reuse_hits\":" << p.reuse_hits
       << ",\"fresh_allocs\":" << p.fresh_allocs << ",\"reuse_hit_rate\":"
       << std::setprecision(6) << p.reuse_hit_rate()
       << ",\"growth_beyond_bound\":" << p.growth_beyond_bound
       << ",\"page_aligned_chunks\":" << p.page_aligned_chunks
       << ",\"reclaimed_chunks\":" << p.reclaimed_chunks
       << ",\"released_bytes\":" << p.released_bytes
       << ",\"shrink_events\":" << p.shrink_events
       << ",\"reactivated_chunks\":" << p.reactivated_chunks << '}';
}

} // namespace detail

/// Serialize a memory_stats as the `memory` JSON object klsm_bench
/// embeds per record (README "Allocation telemetry" documents the
/// schema).
inline std::string memory_json(const memory_stats &m) {
    std::ostringstream os;
    os << "{\"pools\":{";
    detail::pool_json(os, "items", m.items);
    os << ',';
    detail::pool_json(os, "dist_blocks", m.dist_blocks);
    os << ',';
    detail::pool_json(os, "shared_blocks", m.shared_blocks);
    os << "}}";
    return os.str();
}

} // namespace klsm::mm
