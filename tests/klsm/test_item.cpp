#include "klsm/item.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace klsm {
namespace {

using item_t = item<std::uint32_t, std::uint64_t>;

// An item is its version word and its payload, nothing else.
static_assert(sizeof(item<std::uint32_t, std::uint32_t>) == 16);
static_assert(sizeof(item<std::uint64_t, std::uint64_t>) == 24);

TEST(Item, HoldsOnlyVersionAndPayload) {
    EXPECT_EQ((sizeof(item<std::uint32_t, std::uint32_t>)), 16u);
    EXPECT_EQ((sizeof(item<std::uint64_t, std::uint64_t>)), 24u);
    EXPECT_EQ(sizeof(item_t), 24u) << "a u32 key pads to the u64 value";
}

TEST(Item, FreshItemIsFreeAndReusable) {
    item_t it;
    EXPECT_TRUE(it.reusable());
    EXPECT_EQ(it.version(), 0u);
}

TEST(Item, PublishMakesAliveWithOddVersion) {
    item_t it;
    const std::uint64_t v = it.publish(10, 20);
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(v & 1, 1u);
    EXPECT_TRUE(it.is_alive(v));
    EXPECT_FALSE(it.reusable());
    EXPECT_EQ(it.key(), 10u);
    EXPECT_EQ(it.value(), 20u);
}

TEST(Item, TakeSucceedsOnceWithCorrectVersion) {
    item_t it;
    const std::uint64_t v = it.publish(1, 1);
    EXPECT_FALSE(it.take(v + 2)) << "wrong expected version";
    EXPECT_TRUE(it.take(v));
    EXPECT_FALSE(it.take(v)) << "second take must fail";
    EXPECT_TRUE(it.reusable());
    EXPECT_FALSE(it.is_alive(v));
}

TEST(Item, VersionMonotonicAcrossLives) {
    item_t it;
    std::uint64_t prev = 0;
    for (int life = 0; life < 10; ++life) {
        const std::uint64_t v = it.publish(static_cast<std::uint32_t>(life),
                                           static_cast<std::uint64_t>(life));
        EXPECT_GT(v, prev);
        EXPECT_EQ(it.key(), static_cast<std::uint32_t>(life));
        EXPECT_TRUE(it.take(v));
        prev = v;
    }
}

TEST(Item, StaleVersionNeverTakesLaterLife) {
    item_t it;
    const std::uint64_t v1 = it.publish(1, 1);
    ASSERT_TRUE(it.take(v1));
    const std::uint64_t v2 = it.publish(2, 2);
    EXPECT_FALSE(it.take(v1)) << "stale reference took a reused item";
    EXPECT_TRUE(it.is_alive(v2));
    EXPECT_EQ(it.key(), 2u);
}

// The central concurrency property: exactly one of many concurrent takers
// wins, for every life of the item.
TEST(Item, ExactlyOneConcurrentTakeWins) {
    item_t it;
    constexpr int threads = 8, rounds = 200;
    for (int round = 0; round < rounds; ++round) {
        const std::uint64_t v =
            it.publish(static_cast<std::uint32_t>(round), 0);
        std::atomic<int> winners{0};
        std::vector<std::thread> ts;
        for (int t = 0; t < threads; ++t)
            ts.emplace_back([&] {
                if (it.take(v))
                    winners.fetch_add(1);
            });
        for (auto &t : ts)
            t.join();
        EXPECT_EQ(winners.load(), 1) << "round " << round;
    }
}

TEST(ItemRef, EmptyAndAliveSemantics) {
    item_ref<std::uint32_t, std::uint64_t> ref;
    EXPECT_TRUE(ref.empty());
    EXPECT_FALSE(ref.alive());

    item_t it;
    ref.it = &it;
    ref.version = it.publish(3, 4);
    ref.key = 3;
    EXPECT_FALSE(ref.empty());
    EXPECT_TRUE(ref.alive());
    EXPECT_TRUE(ref.take());
    EXPECT_FALSE(ref.alive());
}

} // namespace
} // namespace klsm
