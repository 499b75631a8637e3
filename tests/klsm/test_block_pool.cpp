#include "klsm/block_pool.hpp"

#include <gtest/gtest.h>

#include <set>

namespace klsm {
namespace {

using pool_t = block_pool<std::uint32_t, std::uint64_t>;
using block_t = block<std::uint32_t, std::uint64_t>;

TEST(BlockPool, AcquireReturnsMutatingBlockOfRequestedShape) {
    pool_t pool;
    block_t *b = pool.acquire(3, 2, pool_t::always_recyclable);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->capacity_pow(), 3u);
    EXPECT_EQ(b->capacity(), 8u);
    EXPECT_EQ(b->level(), 2u);
    EXPECT_EQ(b->generation() & 1, 1u) << "acquired block is mutating";
    EXPECT_EQ(b->pool_state(), block_state::held);
    pool.release(b);
    EXPECT_EQ(b->pool_state(), block_state::free);
}

TEST(BlockPool, FourHeldBlocksPerLevelAllocateOnDemand) {
    pool_t pool;
    std::set<block_t *> distinct;
    block_t *held[4];
    for (int i = 0; i < 4; ++i) {
        held[i] = pool.acquire(2, 2, pool_t::always_recyclable);
        distinct.insert(held[i]);
        EXPECT_EQ(pool.total_blocks(), static_cast<std::size_t>(i + 1))
            << "one block per acquire, the first included";
    }
    EXPECT_EQ(distinct.size(), 4u);
    EXPECT_EQ(pool.overflow_allocations(), 0u);
    for (auto *b : held)
        pool.release(b);
}

TEST(BlockPool, RecyclesFreedBlocksWithoutGrowth) {
    pool_t pool;
    std::set<block_t *> seen;
    for (int i = 0; i < 100; ++i) {
        block_t *b = pool.acquire(1, 1, pool_t::always_recyclable);
        seen.insert(b);
        pool.release(b);
    }
    EXPECT_EQ(seen.size(), 1u) << "a free block is reused first";
    EXPECT_EQ(pool.total_blocks(), 1u);
    EXPECT_EQ(pool.overflow_allocations(), 0u);
}

TEST(BlockPool, OverflowAllocatesInsteadOfFailing) {
    pool_t pool;
    std::vector<block_t *> held;
    for (int i = 0; i < 6; ++i)
        held.push_back(pool.acquire(0, 0, pool_t::always_recyclable));
    EXPECT_EQ(pool.overflow_allocations(), 2u) << "the 5th and 6th";
    EXPECT_EQ(pool.total_blocks(), 6u);
    std::set<block_t *> distinct(held.begin(), held.end());
    EXPECT_EQ(distinct.size(), 6u);
    for (auto *b : held)
        pool.release(b);
}

TEST(BlockPool, GenerationAdvancesAcrossReuse) {
    pool_t pool;
    block_t *b = pool.acquire(0, 0, pool_t::always_recyclable);
    b->seal();
    const std::uint64_t g1 = b->generation();
    pool.release(b);
    // Cycle through the bucket until the same block comes back.
    for (int i = 0; i < 8; ++i) {
        block_t *c = pool.acquire(0, 0, pool_t::always_recyclable);
        const bool same = (c == b);
        c->seal();
        pool.release(c);
        if (same) {
            EXPECT_GT(c->generation(), g1);
            return;
        }
    }
    FAIL() << "released block never recycled";
}

TEST(BlockPool, PublishedBlocksNeedPredicateApproval) {
    pool_t pool;
    block_t *b = pool.acquire(0, 0, pool_t::always_recyclable);
    b->seal();
    pool.mark_published(b);
    EXPECT_EQ(b->pool_state(), block_state::published);

    // Predicate says "still referenced": pool must not recycle b.
    std::set<block_t *> got;
    block_t *held[5];
    int n = 0;
    for (int i = 0; i < 5; ++i) {
        held[n++] = pool.acquire(
            0, 0, [&](block_t *x) { return x != b; });
        got.insert(held[n - 1]);
    }
    EXPECT_EQ(got.count(b), 0u);

    for (int i = 0; i < n; ++i)
        pool.release(held[i]);

    // Now the predicate approves: b becomes acquirable again.
    std::set<block_t *> got2;
    for (int i = 0; i < 4; ++i) {
        block_t *x = pool.acquire(0, 0, pool_t::always_recyclable);
        got2.insert(x);
        pool.release(x);
    }
    EXPECT_EQ(got2.count(b), 1u);
}

TEST(BlockPool, SeparateBucketsPerCapacity) {
    pool_t pool;
    block_t *a = pool.acquire(0, 0, pool_t::always_recyclable);
    block_t *b = pool.acquire(5, 5, pool_t::always_recyclable);
    EXPECT_NE(a, b);
    EXPECT_EQ(a->capacity(), 1u);
    EXPECT_EQ(b->capacity(), 32u);
    EXPECT_EQ(pool.total_blocks(), 2u) << "1 per touched level";
    pool.release(a);
    pool.release(b);
}

} // namespace
} // namespace klsm
