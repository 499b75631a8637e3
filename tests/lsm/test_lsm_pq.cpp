// The paper's sequential LSM (Section 3) runs as each thread's DistLSM
// (klsm/dist_lsm.hpp, Section 4.2).  At one thread it is an exact
// priority queue; these cases check that on the standalone distributed
// LSM (`dist_pq`, "DLSM" in Figure 3) and on one `dist_lsm_local`
// driven directly.  The relaxed k+1 draw lives in the shared LSM and is
// checked by test_shared_lsm.

#include "klsm/dist_lsm.hpp"
#include "klsm/k_lsm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace klsm {
namespace {

using pq = dist_pq<std::uint32_t, std::uint64_t>;
using dist_t = dist_lsm_local<std::uint32_t, std::uint64_t>;

void insert_local(dist_t &d, std::uint32_t key) {
    d.insert(key, std::uint64_t{key} * 10, /*tid=*/0, dist_t::unbounded,
             no_lazy{}, [](block<std::uint32_t, std::uint64_t> *,
                           std::uint32_t) {});
}

TEST(LsmPq, EmptyBehaviour) {
    pq q;
    EXPECT_EQ(q.size_hint(), 0u);
    std::uint32_t k;
    std::uint64_t v;
    EXPECT_FALSE(q.try_delete_min(k, v));
}

TEST(LsmPq, SingleElement) {
    pq q;
    q.insert(7, 70);
    EXPECT_EQ(q.size_hint(), 1u);
    std::uint32_t k;
    std::uint64_t v;
    ASSERT_TRUE(q.try_delete_min(k, v));
    EXPECT_EQ(k, 7u);
    EXPECT_EQ(v, 70u);
    EXPECT_FALSE(q.try_delete_min(k, v));
}

TEST(LsmPq, DeletesInSortedOrder) {
    pq q;
    std::vector<std::uint32_t> keys = {5, 3, 9, 1, 7, 3, 8, 2, 6, 4, 0};
    for (auto key : keys)
        q.insert(key, std::uint64_t{key} * 10);
    std::sort(keys.begin(), keys.end());
    for (auto expect : keys) {
        std::uint32_t k;
        std::uint64_t v;
        ASSERT_TRUE(q.try_delete_min(k, v));
        EXPECT_EQ(k, expect);
        EXPECT_EQ(v, std::uint64_t{expect} * 10);
    }
    std::uint32_t k;
    std::uint64_t v;
    EXPECT_FALSE(q.try_delete_min(k, v));
}

TEST(LsmPq, DuplicateKeysAllSurvive) {
    pq q;
    for (std::uint64_t i = 0; i < 10; ++i)
        q.insert(42, i);
    EXPECT_EQ(q.size_hint(), 10u);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 10; ++i) {
        std::uint32_t k;
        std::uint64_t v;
        ASSERT_TRUE(q.try_delete_min(k, v));
        EXPECT_EQ(k, 42u);
        values.push_back(v);
    }
    std::sort(values.begin(), values.end());
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(values[i], i) << "each duplicate comes out exactly once";
}

TEST(LsmPq, AscendingAndDescendingInsertion) {
    for (bool ascending : {true, false}) {
        pq q;
        for (std::uint32_t i = 0; i < 200; ++i)
            q.insert(ascending ? i : 199 - i, i);
        for (std::uint32_t i = 0; i < 200; ++i) {
            std::uint32_t k;
            std::uint64_t v;
            ASSERT_TRUE(q.try_delete_min(k, v));
            EXPECT_EQ(k, i);
        }
    }
}

TEST(LsmPq, InterleavedInsertDelete) {
    pq q;
    std::uint32_t k;
    std::uint64_t v;
    for (std::uint32_t round = 0; round < 50; ++round) {
        q.insert(round * 2 + 1, round);
        q.insert(round * 2, round);
        ASSERT_TRUE(q.try_delete_min(k, v));
        // Before round r the queue holds r..2r-1, so its minimum is r.
        EXPECT_EQ(k, round);
    }
    for (std::uint32_t expect = 50; expect < 100; ++expect) {
        ASSERT_TRUE(q.try_delete_min(k, v));
        EXPECT_EQ(k, expect);
    }
    EXPECT_FALSE(q.try_delete_min(k, v));
}

TEST(LsmPq, LocalFindMinPeeksWithoutRemoving) {
    dist_t d;
    for (std::uint32_t key : {9u, 4u, 6u, 1u, 8u})
        insert_local(d, key);
    auto first = d.find_min();
    auto again = d.find_min();
    ASSERT_FALSE(first.empty());
    ASSERT_FALSE(again.empty());
    EXPECT_EQ(first.key, 1u);
    EXPECT_EQ(again.key, 1u);
    EXPECT_EQ(first.it->value(), 10u);
    EXPECT_EQ(d.item_count_estimate(), 5u);
    ASSERT_TRUE(first.take());
    EXPECT_FALSE(again.take()) << "a peeked item is taken once";
    auto next = d.find_min();
    ASSERT_FALSE(next.empty());
    EXPECT_EQ(next.key, 4u);
    EXPECT_EQ(d.item_count_estimate(), 4u);
}

TEST(LsmPq, LocalMergeChainDrainsInOrder) {
    // 1000 inserts run the merge chain through every level up to 2^9;
    // the drain must still come out sorted, whatever the insert order.
    dist_t d;
    std::vector<std::uint32_t> keys(1000);
    for (std::uint32_t i = 0; i < 1000; ++i)
        keys[i] = (i * 7919u) % 1000u;
    for (auto key : keys)
        insert_local(d, key);
    EXPECT_EQ(d.item_count_estimate(), 1000u);
    for (std::uint32_t i = 0; i < 1000; ++i) {
        auto ref = d.find_min();
        ASSERT_FALSE(ref.empty()) << "at " << i;
        ASSERT_EQ(ref.key, i);
        ASSERT_TRUE(ref.take());
    }
    EXPECT_TRUE(d.find_min().empty());
    EXPECT_TRUE(d.empty_hint());
}

} // namespace
} // namespace klsm
