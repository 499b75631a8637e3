#include "klsm/block.hpp"

#include "mm/item_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace klsm {
namespace {

using block_t = block<std::uint32_t, std::uint64_t>;
using pool_t = item_pool<std::uint32_t, std::uint64_t>;

// Build a sealed block holding `keys` (given in any order; appended in
// decreasing order as the block contract requires).  Blocks are pinned in
// place (non-copyable), so the helper hands back a unique_ptr.
std::unique_ptr<block_t> make_block(pool_t &pool,
                                    std::vector<std::uint32_t> keys,
                                    std::uint32_t capacity_pow) {
    std::sort(keys.rbegin(), keys.rend());
    auto b = std::make_unique<block_t>(capacity_pow);
    b->reuse_begin(capacity_pow);
    for (auto k : keys)
        b->append(pool.allocate(k, k));
    b->seal();
    return b;
}

TEST(Block, AppendStoresDecreasingRun) {
    pool_t pool;
    auto bp = make_block(pool, {5, 3, 9, 1}, 2);
    block_t &b = *bp;
    EXPECT_EQ(b.filled(), 4u);
    std::uint32_t prev = 0xffffffff;
    for (std::uint32_t i = 0; i < b.filled(); ++i) {
        const auto e = b.load_entry(i);
        EXPECT_LE(e.key, prev);
        prev = e.key;
    }
    EXPECT_EQ(b.load_entry(b.filled() - 1).key, 1u) << "min at the end";
}

TEST(Block, AppendSkipsDeadItems) {
    pool_t pool;
    block_t b{2};
    b.reuse_begin(2);
    auto alive = pool.allocate(9, 9);
    auto dead = pool.allocate(5, 5);
    dead.take();
    EXPECT_TRUE(b.append(alive));
    EXPECT_FALSE(b.append(dead));
    b.seal();
    EXPECT_EQ(b.filled(), 1u);
}

TEST(Block, AppendAppliesLazyDeletion) {
    pool_t pool;
    block_t b{2};
    b.reuse_begin(2);
    auto ref = pool.allocate(7, 7);
    auto expired = [](const std::uint32_t &key, const auto *) {
        return key == 7;
    };
    EXPECT_FALSE(b.append(ref, expired));
    b.seal();
    EXPECT_EQ(b.filled(), 0u);
    EXPECT_FALSE(ref.alive()) << "lazily expired items must be taken";
}

TEST(Block, PeekMinSkipsDeadSuffix) {
    pool_t pool;
    block_t b{3};
    b.reuse_begin(3);
    auto r9 = pool.allocate(9, 9);
    auto r5 = pool.allocate(5, 5);
    auto r2 = pool.allocate(2, 2);
    b.append(r9);
    b.append(r5);
    b.append(r2);
    b.seal();

    EXPECT_EQ(b.peek_min(b.filled()).key, 2u);
    r2.take();
    EXPECT_EQ(b.peek_min(b.filled()).key, 5u);
    r5.take();
    EXPECT_EQ(b.peek_min(b.filled()).key, 9u);
    r9.take();
    EXPECT_TRUE(b.peek_min(b.filled()).empty());
}

TEST(Block, TrimOwnerDropsDeadSuffixAndLowersLevel) {
    pool_t pool;
    std::vector<std::uint32_t> keys;
    std::vector<item_ref<std::uint32_t, std::uint64_t>> refs;
    block_t b{3};
    b.reuse_begin(3);
    for (std::uint32_t k : {80u, 70u, 60u, 50u, 40u, 30u, 20u, 10u}) {
        auto r = pool.allocate(k, k);
        b.append(r);
        refs.push_back(r);
    }
    b.seal();
    EXPECT_EQ(b.level(), 3u);
    // Kill the smallest five (the suffix).
    for (std::size_t i = 3; i < 8; ++i)
        refs[i].take();
    b.trim_owner();
    EXPECT_EQ(b.filled(), 3u);
    EXPECT_EQ(b.level(), 2u) << "3 items need level 2";
    EXPECT_EQ(b.peek_min(b.filled()).key, 60u);
}

TEST(Block, MergePreservesOrderAndFiltersDead) {
    pool_t pool;
    auto ap = make_block(pool, {1, 5, 9}, 2);
    auto cp = make_block(pool, {2, 6, 10, 14}, 2);
    block_t &a = *ap;
    block_t &c = *cp;
    // Kill key 6.
    for (std::uint32_t i = 0; i < c.filled(); ++i) {
        auto e = c.load_entry(i);
        if (e.key == 6)
            e.take();
    }
    block_t m{3};
    m.reuse_begin(3);
    m.merge_from(a, a.filled(), c, c.filled());
    m.seal();
    ASSERT_EQ(m.filled(), 6u);
    const std::uint32_t expect[] = {14, 10, 9, 5, 2, 1};
    for (std::uint32_t i = 0; i < 6; ++i)
        EXPECT_EQ(m.load_entry(i).key, expect[i]);
}

TEST(Block, CopyFromFiltersDeadAndKeepsOrder) {
    pool_t pool;
    auto srcp = make_block(pool, {8, 6, 4, 2}, 2);
    block_t &src = *srcp;
    auto mid = src.load_entry(1); // key 6
    mid.take();
    block_t dst{2};
    dst.reuse_begin(2);
    dst.copy_from(src, src.filled());
    dst.seal();
    ASSERT_EQ(dst.filled(), 3u);
    EXPECT_EQ(dst.load_entry(0).key, 8u);
    EXPECT_EQ(dst.load_entry(1).key, 4u);
    EXPECT_EQ(dst.load_entry(2).key, 2u);
}

TEST(Block, GenerationParityTracksMutationWindow) {
    block_t b{1};
    EXPECT_EQ(b.generation() & 1, 0u);
    b.reuse_begin(1);
    EXPECT_EQ(b.generation() & 1, 1u);
    b.seal();
    EXPECT_EQ(b.generation() & 1, 0u);
}

TEST(Block, SpyCopySucceedsOnStableBlock) {
    pool_t pool;
    auto victimp = make_block(pool, {30, 20, 10}, 2);
    block_t &victim = *victimp;
    block_t mine{2};
    mine.reuse_begin(2);
    EXPECT_TRUE(mine.spy_copy_from(victim));
    mine.seal();
    EXPECT_EQ(mine.filled(), 3u);
    EXPECT_EQ(mine.peek_min(mine.filled()).key, 10u);
}

TEST(Block, SpyCopyFailsOnMutatingBlock) {
    pool_t pool;
    auto victimp = make_block(pool, {30, 20, 10}, 2);
    block_t &victim = *victimp;
    victim.reuse_begin(2); // recycling started
    block_t mine{2};
    mine.reuse_begin(2);
    EXPECT_FALSE(mine.spy_copy_from(victim));
}

TEST(Block, SpyCopyFailsWhenVictimRecycledMidway) {
    pool_t pool;
    auto victimp = make_block(pool, {30, 20, 10}, 2);
    block_t &victim = *victimp;
    block_t mine{2};
    mine.reuse_begin(2);
    // Simulate "recycled between generation reads": read generation,
    // then recycle, then validate.
    const std::uint64_t g1 = victim.generation();
    victim.reuse_begin(2);
    victim.seal();
    EXPECT_NE(victim.generation(), g1)
        << "generation must change across recycling";
    EXPECT_FALSE(mine.spy_copy_from(victim) &&
                 victim.generation() == g1);
}

TEST(Block, LevelForMatchesPaperRule) {
    EXPECT_EQ(block_t::level_for(0), 0u);
    EXPECT_EQ(block_t::level_for(1), 0u);
    EXPECT_EQ(block_t::level_for(2), 1u);
    EXPECT_EQ(block_t::level_for(3), 2u);
    EXPECT_EQ(block_t::level_for(4), 2u);
    EXPECT_EQ(block_t::level_for(5), 3u);
    EXPECT_EQ(block_t::level_for(1024), 10u);
    EXPECT_EQ(block_t::level_for(1025), 11u);
}

} // namespace
} // namespace klsm
