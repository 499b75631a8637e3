// The pinned order over the process's CPU mask: the CPUs of the calling
// thread's affinity mask, ascending, each once, and exactly as many as
// the mask's CPU_COUNT (the `cpus` meta key of every report).

#include "topo/pinning.hpp"

#include <algorithm>

#include <gtest/gtest.h>

namespace klsm::topo {
namespace {

TEST(PinnedOrder, NoneIsEmpty) {
    EXPECT_TRUE(cpu_order(pin_policy::none).empty());
}

TEST(PinnedOrder, AscendingWithoutRepeats) {
    const auto order = cpu_order(pin_policy::affinity);
    ASSERT_FALSE(order.empty());
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(std::adjacent_find(order.begin(), order.end()), order.end())
        << "a cpu repeats";
}

TEST(PinnedOrder, SizeIsTheMaskCount) {
#if !defined(__linux__)
    GTEST_SKIP() << "affinity masks are Linux-only";
#else
    cpu_set_t mask;
    CPU_ZERO(&mask);
    ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
    const auto order = cpu_order(pin_policy::affinity);
    EXPECT_EQ(order.size(), static_cast<std::size_t>(CPU_COUNT(&mask)));
    for (const auto c : order)
        EXPECT_TRUE(CPU_ISSET(static_cast<int>(c), &mask)) << "cpu " << c;
#endif
}

} // namespace
} // namespace klsm::topo
