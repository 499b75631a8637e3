// Pinning policies: exact placement orders against the fixture machine
// (see test_topology.cpp for its shape), plus pin_self on the real host.

#include "topo/pinning.hpp"

#include <thread>

#include <gtest/gtest.h>

namespace klsm::topo {
namespace {

topology fixture() {
    return topology::discover(std::string(KLSM_TOPO_FIXTURE_DIR) +
                              "/fake_sysfs");
}

TEST(PinPolicy, NamesRoundTrip) {
    for (const auto p : {pin_policy::none, pin_policy::compact,
                         pin_policy::scatter}) {
        const auto parsed = parse_pin_policy(pin_policy_name(p));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, p);
    }
    EXPECT_FALSE(parse_pin_policy("").has_value());
    EXPECT_FALSE(parse_pin_policy("Compact").has_value());
    EXPECT_FALSE(parse_pin_policy("numa").has_value());
    EXPECT_FALSE(parse_pin_policy("numa_fill").has_value());
}

TEST(PinPolicy, NoneIsEmpty) {
    EXPECT_TRUE(cpu_order(fixture(), pin_policy::none).empty());
}

// Fixture layout reminder: package0 = cores {0:(0,4), 1:(1,[5 off])},
// package1 = cores {0:(2,6), 1:(3,7)}; node0 = {0,2,4,6},
// node1 = {1,3,7}.

TEST(PinPolicy, CompactFillsCoreThenPackage) {
    // (package, core, smt_rank) lexicographic: both threads of a core
    // before the next core, all of package0 before package1.
    EXPECT_EQ(cpu_order(fixture(), pin_policy::compact),
              (std::vector<std::uint32_t>{0, 4, 1, 2, 6, 3, 7}));
}

TEST(PinPolicy, ScatterRoundRobinsPackagesCoresFirst) {
    // Physical cores of each package first (smt_rank 0), alternating
    // packages; SMT siblings only after every physical core is used.
    EXPECT_EQ(cpu_order(fixture(), pin_policy::scatter),
              (std::vector<std::uint32_t>{0, 2, 1, 3, 4, 6, 7}));
}

TEST(PinPolicy, AllPoliciesCoverEveryOnlineCpuOnce) {
    const topology t = fixture();
    for (const auto p : {pin_policy::compact, pin_policy::scatter}) {
        auto order = cpu_order(t, p);
        ASSERT_EQ(order.size(), t.num_cpus()) << pin_policy_name(p);
        std::sort(order.begin(), order.end());
        EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 6, 7}))
            << pin_policy_name(p);
    }
}

TEST(PinPolicy, ByNameLookup) {
    const topology t = fixture();
    const auto order = cpu_order(t, std::string("compact"));
    ASSERT_TRUE(order.has_value());
    EXPECT_EQ(order->size(), t.num_cpus());
    EXPECT_FALSE(cpu_order(t, std::string("bogus")).has_value());
}

TEST(PinPolicy, FallbackTopologyOrdersAreIdentity) {
    const topology t = topology::fallback(4);
    const std::vector<std::uint32_t> identity{0, 1, 2, 3};
    EXPECT_EQ(cpu_order(t, pin_policy::compact), identity);
    EXPECT_EQ(cpu_order(t, pin_policy::scatter), identity);
}

TEST(PinSelf, PinsASpawnedThreadToARealCpu) {
#if !defined(__linux__)
    GTEST_SKIP() << "pin_self is Linux-only";
#else
    // Pin to a cpu from the process's *allowed* mask, not from the
    // discovered topology: under a restricted cpuset (docker
    // --cpuset-cpus) the fallback topology invents os_ids that the
    // kernel would reject.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
    std::uint32_t target = ~0u;
    for (std::uint32_t c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            target = c;
            break;
        }
    }
    ASSERT_NE(target, ~0u);
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
