// Pin policies, and the pinned order under a narrowed affinity mask:
// a thread whose mask holds fewer CPUs than the machine is pinned only
// inside its mask.

#include "topo/pinning.hpp"

#include <thread>

#include <gtest/gtest.h>

namespace klsm::topo {
namespace {

TEST(PinPolicy, NamesRoundTrip) {
    for (const auto p : {pin_policy::none, pin_policy::affinity}) {
        const auto parsed = parse_pin_policy(pin_policy_name(p));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, p);
    }
    EXPECT_FALSE(parse_pin_policy("").has_value());
    EXPECT_FALSE(parse_pin_policy("Affinity").has_value());
    EXPECT_FALSE(parse_pin_policy("none,affinity").has_value());
}

#if defined(__linux__)
/// Narrow the calling thread's own mask to `cpus`.
bool narrow_mask(const std::vector<std::uint32_t> &cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const auto c : cpus)
        CPU_SET(static_cast<int>(c), &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
}
#endif

TEST(PinSelf, NarrowedMaskPinsInsideIt) {
#if !defined(__linux__)
    GTEST_SKIP() << "affinity masks are Linux-only";
#else
    // The last CPU of the mask, so an order that lists every online
    // CPU from 0 up cannot pass by accident.
    const auto mask = cpu_order(pin_policy::affinity);
    ASSERT_FALSE(mask.empty());
    const std::uint32_t target = mask.back();
    bool narrowed = false, pinned = false;
    std::vector<std::uint32_t> order;
    std::uint32_t observed = ~0u;
    std::thread t([&] {
        narrowed = narrow_mask({target});
        order = cpu_order(pin_policy::affinity);
        if (order.empty())
            return;
        pinned = pin_self(order.front());
        const auto cpu = current_cpu();
        observed = cpu ? *cpu : ~0u;
    });
    t.join();
    ASSERT_TRUE(narrowed);
    EXPECT_EQ(order, std::vector<std::uint32_t>{target});
    EXPECT_TRUE(pinned);
    EXPECT_EQ(observed, target);
#endif
}

TEST(PinSelf, NarrowedToTwoCpusIsAscending) {
#if !defined(__linux__)
    GTEST_SKIP() << "affinity masks are Linux-only";
#else
    const auto mask = cpu_order(pin_policy::affinity);
    if (mask.size() < 2)
        GTEST_SKIP() << "the mask holds one cpu";
    const std::vector<std::uint32_t> pair{mask.front(), mask.back()};
    bool narrowed = false;
    std::vector<std::uint32_t> order;
    std::thread t([&] {
        narrowed = narrow_mask({mask.back(), mask.front()});
        order = cpu_order(pin_policy::affinity);
    });
    t.join();
    ASSERT_TRUE(narrowed);
    EXPECT_EQ(order, pair);
#endif
}

TEST(PinSelf, PinsASpawnedThreadToARealCpu) {
#if !defined(__linux__)
    GTEST_SKIP() << "pin_self is Linux-only";
#else
    const auto order = cpu_order(pin_policy::affinity);
    ASSERT_FALSE(order.empty());
    const std::uint32_t target = order.front();
    bool pinned = false;
    std::uint32_t observed = ~0u;
    std::thread t([&] {
        pinned = pin_self(target);
        const auto cpu = current_cpu();
        observed = cpu ? *cpu : ~0u;
    });
    t.join();
    EXPECT_TRUE(pinned);
    EXPECT_EQ(observed, target);
#endif
}

TEST(PinSelf, StaleCpuIdFailsGracefully) {
    // A cpu id far beyond the machine: setaffinity refuses, returns
    // false, and the thread keeps running unpinned.
    std::thread t([] { EXPECT_FALSE(pin_self(100000)); });
    t.join();
}

} // namespace
} // namespace klsm::topo
