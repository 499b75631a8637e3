// Contention telemetry on live queues: a contention_monitor attached to
// a k_lsm sees its publishes, delete hits and spies.

#include <cstdint>
#include <thread>

#include "adapt/contention_monitor.hpp"
#include "klsm/k_lsm.hpp"
#include "klsm/pq_concept.hpp"

#include <gtest/gtest.h>

namespace klsm {
namespace {

static_assert(monitorable<k_lsm<std::uint32_t, std::uint32_t>>);

TEST(AdaptiveKlsm, MonitorSeesPublishesHitsAndSpies) {
    k_lsm<std::uint32_t, std::uint32_t> q{4}; // tiny k: spills early
    adapt::contention_monitor mon;
    q.set_monitor(&mon);
    // Another thread feeds the queue and exits, leaving its items
    // reachable only through the shared component or spying.
    std::thread feeder([&] {
        for (std::uint32_t i = 0; i < 100; ++i)
            q.insert(i, i);
    });
    feeder.join();
    std::uint32_t k, v;
    std::uint32_t count = 0;
    while (q.try_delete_min(k, v))
        ++count;
    EXPECT_EQ(count, 100u);
    const adapt::contention_window t = mon.totals();
    EXPECT_GT(t.publishes, 0u) << "k=4 inserts must spill and publish";
    EXPECT_EQ(t.shared_hits + t.local_hits, 100u)
        << "every successful delete reports its hit source";
    q.set_monitor(nullptr);
    q.insert(1, 1);
    ASSERT_TRUE(q.try_delete_min(k, v));
    EXPECT_EQ(mon.totals().shared_hits + mon.totals().local_hits, 100u)
        << "detached monitor still receiving events";
}

TEST(AdaptiveKlsm, SpyEventsAreCounted) {
    k_lsm<std::uint32_t, std::uint32_t> q{1000}; // large k: no spills
    adapt::contention_monitor mon;
    q.set_monitor(&mon);
    std::thread other([&] {
        for (std::uint32_t i = 0; i < 10; ++i)
            q.insert(i, i);
    });
    other.join();
    // This thread's DistLSM and the shared LSM are both empty: the
    // delete must go through spying.
    std::uint32_t k, v;
    ASSERT_TRUE(q.try_delete_min(k, v));
    EXPECT_GE(mon.totals().spies, 1u);
}

} // namespace
} // namespace klsm
