// Allocation-placement telemetry wired through the pools and the
// queues (mm/alloc_stats.hpp consumers).
//
// The concurrent case doubles as the paper-bound check the block-pool
// header promises: a mixed insert/delete run across every placement
// policy must never grow a DistLSM pool beyond the paper's
// four-blocks-per-level bound (growth_beyond_bound stays 0 there),
// whichever node the pages went to.  The shared-LSM pools' safety
// valve may fire under churn by design and is only bounded loosely.

#include "mm/alloc_stats.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "klsm/block_pool.hpp"
#include "klsm/k_lsm.hpp"
#include "mm/item_pool.hpp"
#include "util/rng.hpp"

namespace klsm {
namespace {

TEST(PoolStats, ItemPoolCountsReuseSweepHits) {
    item_pool<std::uint32_t, std::uint32_t> pool;
    // allocate/take cycles: after the first allocation every further
    // one should be satisfied by the reuse sweep.
    for (std::uint32_t i = 0; i < 100; ++i) {
        auto ref = pool.allocate(i, i);
        ref.take();
    }
    const auto snap = pool.stats().snapshot();
    EXPECT_EQ(snap.reuse_hits + snap.fresh_allocs, 100u);
    EXPECT_LE(snap.fresh_allocs, 2u);
    EXPECT_GE(snap.reuse_hits, 98u);
    EXPECT_GT(snap.reuse_hit_rate(), 0.9);
    EXPECT_GE(snap.chunks, 1u);
    EXPECT_GT(snap.bytes, 0u);
    EXPECT_EQ(snap.growth_beyond_bound, 0u)
        << "item pools have no paper bound to exceed";
}

TEST(PoolStats, BlockPoolCountsReuseFreshAndGrowth) {
    block_pool<std::uint32_t, std::uint32_t> pool;
    using pool_t = block_pool<std::uint32_t, std::uint32_t>;
    std::vector<block<std::uint32_t, std::uint32_t> *> held;
    for (int i = 0; i < 6; ++i)
        held.push_back(pool.acquire(0, 0, pool_t::always_recyclable));
    const auto snap = pool.stats().snapshot();
    // Every acquire found all blocks held, so each allocated one block
    // on demand; the 5th and 6th are beyond the paper's bound.
    EXPECT_EQ(snap.reuse_hits, 0u);
    EXPECT_EQ(snap.fresh_allocs, 6u);
    EXPECT_EQ(snap.growth_beyond_bound, 2u);
    EXPECT_EQ(snap.growth_beyond_bound, pool.overflow_allocations());
    EXPECT_EQ(snap.chunks, 6u) << "one block per fresh acquire";
    EXPECT_GT(snap.bytes, 0u);
    for (auto *b : held)
        pool.release(b);
}

TEST(PoolStats, KLsmAggregatesItemAndBlockPools) {
    k_lsm<std::uint32_t, std::uint32_t> q{8};
    for (std::uint32_t i = 0; i < 1000; ++i)
        q.insert(i, i);
    const auto m = q.memory_stats();
    EXPECT_GT(m.items.chunks, 0u);
    EXPECT_GT(m.items.fresh_allocs, 0u);
    EXPECT_GT(m.dist_blocks.chunks, 0u);
    EXPECT_GT(m.dist_blocks.bytes, 0u);
    EXPECT_EQ(m.dist_blocks.growth_beyond_bound, 0u);
    EXPECT_GT(m.shared_blocks.chunks, 0u)
        << "k=8 forces spills into the shared component";
    EXPECT_FALSE(m.resident_queried)
        << "residency is opt-in, not a side effect";
}

// Block pools allocate on demand, so shared block storage stays within
// four entries per item (2^17 single-thread inserts measure three).
TEST(PoolStats, SharedBlockFootprintStaysNearItemCount) {
    using queue_t = k_lsm<std::uint32_t, std::uint32_t>;
    constexpr std::size_t n = std::size_t{1} << 17;
    queue_t q{256};
    for (std::uint32_t i = 0; i < n; ++i)
        q.insert(i * 2654435761u, i);
    const auto m = q.memory_stats();
    EXPECT_LE(m.shared_blocks.bytes,
              4 * n * sizeof(block<std::uint32_t, std::uint32_t>::entry));
    EXPECT_EQ(m.shared_blocks.chunks, m.shared_blocks.fresh_allocs);
    EXPECT_EQ(m.dist_blocks.chunks, m.dist_blocks.fresh_allocs);
}

TEST(PoolStats, ResidencyQueryCoversTheBackingPages) {
    if (!mm::residency_query_supported())
        GTEST_SKIP() << "move_pages not available on this platform";
    k_lsm<std::uint32_t, std::uint32_t> q{
        8, {}, {mm::numa_alloc_policy::bind, 0}};
    for (std::uint32_t i = 0; i < 1000; ++i)
        q.insert(i, i);
    const auto m = q.memory_stats(true);
    EXPECT_TRUE(m.resident_queried);
    EXPECT_GT(m.items_resident.total_pages(), 0u);
    EXPECT_GT(m.dist_blocks_resident.total_pages(), 0u);
    // Placed chunks are page-rounded and pre-faulted, so the counted
    // bytes fully convert into countable pages.
    EXPECT_EQ(m.items_resident.total_pages(),
              m.items.bytes / mm::page_size());
    EXPECT_EQ(m.dist_blocks_resident.total_pages(),
              m.dist_blocks.bytes / mm::page_size());
    EXPECT_EQ(m.shared_blocks_resident.total_pages(),
              m.shared_blocks.bytes / mm::page_size());
}

TEST(PoolStats, ResidencySkipsUnplacedStorage) {
    if (!mm::residency_query_supported())
        GTEST_SKIP() << "move_pages not available on this platform";
    // `none`-policy storage shares heap pages with unrelated
    // allocations, so per-page attribution would double-count; the
    // region walk must skip it rather than report inflated totals.
    k_lsm<std::uint32_t, std::uint32_t> q{8};
    for (std::uint32_t i = 0; i < 1000; ++i)
        q.insert(i, i);
    const auto m = q.memory_stats(true);
    EXPECT_TRUE(m.resident_queried);
    EXPECT_GT(m.items.bytes, 0u);
    EXPECT_EQ(m.items_resident.total_pages(), 0u);
    EXPECT_EQ(m.dist_blocks_resident.total_pages(), 0u);
    EXPECT_EQ(m.shared_blocks_resident.total_pages(), 0u);
}

// The paper's four-blocks-per-level bound (Section 4.4) holds in a
// concurrent mixed run, for every placement policy: growth beyond the
// bound would mean the pool's safety valve fired, i.e. a code path
// holds more blocks than the reasoning allows.
TEST(PoolStats, ConcurrentRunStaysWithinPaperBlockBound) {
    for (const auto policy :
         {mm::numa_alloc_policy::none, mm::numa_alloc_policy::bind,
          mm::numa_alloc_policy::firsttouch}) {
        k_lsm<std::uint32_t, std::uint32_t> q{16, {}, {policy, 0}};
        constexpr unsigned threads = 4;
        constexpr std::uint32_t per_thread = 20000;
        std::vector<std::thread> ts;
        for (unsigned w = 0; w < threads; ++w) {
            ts.emplace_back([&, w] {
                xoroshiro128 rng{42 + w};
                std::uint32_t k, v;
                for (std::uint32_t i = 0; i < per_thread; ++i) {
                    if (rng.bounded(2) == 0)
                        q.insert(static_cast<std::uint32_t>(
                                     rng.bounded(1 << 20)),
                                 w);
                    else
                        q.try_delete_min(k, v);
                }
            });
        }
        for (auto &t : ts)
            t.join();
        const auto m = q.memory_stats();
        EXPECT_EQ(m.dist_blocks.growth_beyond_bound, 0u)
            << "policy " << mm::numa_alloc_policy_name(policy);
        // The shared pool's valve may fire by design (see
        // mm/alloc_stats.hpp), but runaway growth would mean broken
        // reclamation: a handful of events across 80k ops is the
        // expected order of magnitude.
        EXPECT_LE(m.shared_blocks.growth_beyond_bound, 64u)
            << "policy " << mm::numa_alloc_policy_name(policy);
        EXPECT_GT(m.dist_blocks.chunks, 0u);
        EXPECT_GT(m.items.chunks, 0u);
        if (policy != mm::numa_alloc_policy::none) {
            EXPECT_EQ(m.dist_blocks.prefaulted_chunks,
                      m.dist_blocks.chunks);
            EXPECT_EQ(m.items.prefaulted_chunks, m.items.chunks);
        }
    }
}

} // namespace
} // namespace klsm
