// Item ownership for the shared LSM's local-ordering check.  The check
// once read a per-block Bloom filter of contributing threads; it now reads
// the exact owner slot kept in the top byte of every item's version
// (item::owner_of).  These tests pin down where that byte comes from and
// that it survives every path an item or a block entry takes: fresh
// allocation, sweep reuse, freelist recycling, shrink revival, and
// block append / copy / merge / spy copy.

#include "klsm/block.hpp"
#include "mm/item_pool.hpp"
#include "mm/reclaim/shrink.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace klsm {
namespace {

using item_t = item<std::uint32_t, std::uint64_t>;
using block_t = block<std::uint32_t, std::uint64_t>;
using pool_t = item_pool<std::uint32_t, std::uint64_t>;
using ref_t = item_ref<std::uint32_t, std::uint64_t>;

mm::mem_placement with_policy(mm::reclaim_policy p) {
    mm::mem_placement place;
    place.reclaim.policy = p;
    return place;
}

/// The owner byte of the entry and of the item it points to.
void expect_owner(const ref_t &ref, std::uint32_t owner) {
    EXPECT_EQ(item_t::owner_of(ref.version), owner) << "key " << ref.key;
    EXPECT_EQ(item_t::owner_of(ref.it->version()), owner) << "key " << ref.key;
}

TEST(OwnerByte, FreshItemsCarryThePoolOwner) {
    for (std::uint32_t owner : {0u, 1u, 7u, 128u, 255u}) {
        pool_t pool{{}, owner};
        EXPECT_EQ(pool.owner(), owner);
        for (std::uint32_t i = 0; i < 300; ++i) { // spans two arena chunks
            const ref_t ref = pool.allocate(i, i);
            expect_owner(ref, owner);
            EXPECT_EQ(ref.version & 1, 1u) << "fresh items publish alive";
        }
    }
    EXPECT_EQ(pool_t{}.owner(), 0u) << "the default owner is slot 0";
}

TEST(OwnerByte, SweepReusedItemKeepsItsOwner) {
    pool_t pool{{}, 200}; // reclamation off: reuse goes through the sweep
    const ref_t a = pool.allocate(1, 1);
    ASSERT_TRUE(a.take());
    const ref_t b = pool.allocate(2, 2);
    ASSERT_EQ(b.it, a.it) << "the sweep must hand back the dead item";
    EXPECT_GT(b.version, a.version);
    expect_owner(b, 200);
    EXPECT_EQ(pool.stats().snapshot().reuse_hits, 1u);
}

TEST(OwnerByte, FreelistRecycledItemKeepsItsOwner) {
    pool_t pool{with_policy(mm::reclaim_policy::freelist), 99};
    const ref_t a = pool.allocate(1, 1);
    ASSERT_TRUE(a.take()); // the winning take pushes onto the freelist
    const ref_t b = pool.allocate(2, 2);
    ASSERT_EQ(b.it, a.it);
    EXPECT_EQ(pool.stats().snapshot().freelist_hits, 1u);
    expect_owner(b, 99);
}

TEST(OwnerByte, ShrinkRevivedItemKeepsItsOwner) {
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    for (std::uint32_t owner : {0u, 255u}) {
        pool_t pool{with_policy(mm::reclaim_policy::full), owner};
        std::vector<ref_t> refs;
        for (std::uint32_t i = 0; i < 256; ++i) // fills the first chunk
            refs.push_back(pool.allocate(i, i));
        item_t *tracked = refs[0].it;
        for (auto &r : refs)
            ASSERT_TRUE(r.take());
        ASSERT_GE(pool.quiescent_shrink(), 1u);
        ASSERT_EQ(pool.census().released, 1u);
        // The released pages read as zero until the chunk is revived.
        EXPECT_EQ(tracked->version(), 0u);
        bool found = false;
        for (std::uint32_t i = 0; i < 256; ++i) {
            const ref_t r = pool.allocate(1000 + i, 0);
            expect_owner(r, owner);
            found = found || r.it == tracked;
        }
        EXPECT_TRUE(found) << "owner " << owner
                           << ": the released chunk must be revived";
        EXPECT_EQ(pool.census().released, 0u);
    }
}

TEST(OwnerByte, BlockEntriesCarryOwnersThroughCopies) {
    // Owners alternate in pairs of keys (0, 1 from owner 3; 2, 3 from
    // owner 250; ...), so both blocks interleave the two owners.
    pool_t pools[2] = {pool_t{{}, 3}, pool_t{{}, 250}};
    const auto owner_for = [](std::uint32_t key) {
        return (key / 2) % 2 == 0 ? 3u : 250u;
    };
    block_t a{3}, c{3}; // a: even keys 14..0, c: odd keys 15..1
    a.reuse_begin(3);
    c.reuse_begin(3);
    for (std::uint32_t k = 8; k-- > 0;) {
        ASSERT_TRUE(a.append(pools[k % 2].allocate(2 * k, 0)));
        ASSERT_TRUE(c.append(pools[k % 2].allocate(2 * k + 1, 0)));
    }
    a.seal();
    c.seal();
    const auto check = [&](const block_t &b, std::uint32_t expect_n) {
        ASSERT_EQ(b.filled(), expect_n);
        for (std::uint32_t i = 0; i < b.filled(); ++i) {
            const ref_t e = b.load_entry(i);
            expect_owner(e, owner_for(e.key));
        }
    };
    check(a, 8);
    check(c, 8);

    block_t copy{3};
    copy.reuse_begin(3);
    copy.copy_from(a, a.filled());
    copy.seal();
    check(copy, 8);

    block_t merged{4};
    merged.reuse_begin(4);
    merged.merge_from(a, a.filled(), c, c.filled());
    merged.seal();
    check(merged, 16);

    block_t spy{4};
    spy.reuse_begin(4);
    ASSERT_TRUE(spy.spy_copy_from(merged));
    spy.seal();
    check(spy, 16);
}

TEST(OwnerByte, LivenessAndReuseIgnoreTheOwner) {
    for (std::uint32_t owner : {0u, 255u}) {
        pool_t pool{{}, owner};
        const ref_t ref = pool.allocate(5, 5);
        EXPECT_TRUE(ref.alive());
        EXPECT_FALSE(ref.it->reusable());
        ASSERT_TRUE(ref.take());
        EXPECT_FALSE(ref.alive());
        EXPECT_TRUE(ref.it->reusable());
        EXPECT_FALSE(ref.take()) << "a second take of one version fails";
        EXPECT_EQ(item_t::owner_of(ref.it->version()), owner)
            << "the take moves only the counter";

        const ref_t again = pool.allocate(6, 6);
        ASSERT_EQ(again.it, ref.it);
        EXPECT_EQ(again.version, ref.version + 2);
        EXPECT_TRUE(again.alive());
        EXPECT_FALSE(ref.alive()) << "a stale reference stays dead";
        EXPECT_FALSE(ref.take()) << "a stale take fails after reuse";
        EXPECT_TRUE(again.alive());
        expect_owner(again, owner);
    }
}

} // namespace
} // namespace klsm
