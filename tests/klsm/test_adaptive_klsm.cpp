// Contention telemetry on live queues: a contention_monitor attached to
// a k_lsm sees its publishes, delete hits and spies, and one monitor
// attached to every numa_klsm shard (how the metrics sampler wires a
// sharded queue) sums the events of all shards.

#include <cstdint>
#include <string>
#include <thread>

#include "adapt/contention_monitor.hpp"
#include "klsm/k_lsm.hpp"
#include "klsm/numa_klsm.hpp"
#include "klsm/pq_concept.hpp"
#include "topo/topology.hpp"

#include <gtest/gtest.h>

namespace klsm {
namespace {

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

TEST(AdaptiveKlsm, OneMonitorCountsPublishesFromEveryNumaShard) {
    using Q = numa_klsm<std::uint32_t, std::uint32_t>;
    static_assert(sharded_monitorable<Q>);
    static_assert(monitorable<k_lsm<std::uint32_t, std::uint32_t>>);
    const auto t = topo::topology::discover(
        std::string(KLSM_TOPO_FIXTURE_DIR) + "/fake_sysfs");
    ASSERT_EQ(t.num_nodes(), 2u);
    Q q{4, t}; // tiny k: spills early
    ASSERT_EQ(q.num_shards(), 2u);
    adapt::contention_monitor mon;
    for (std::uint32_t s = 0; s < q.num_shards(); ++s)
        q.shard(s).set_monitor(&mon);

    // One feeder per shard, one after the other, so each shard's
    // publishes show up as their own step in the shared totals.
    std::uint64_t before = 0;
    for (std::uint32_t s = 0; s < q.num_shards(); ++s) {
        const std::size_t shard_items = q.shard(s).size_hint();
        std::thread feeder([&q, s] {
            q.set_home_shard(s);
            for (std::uint32_t i = 0; i < 100; ++i)
                q.insert(i, i);
        });
        feeder.join();
        EXPECT_GT(q.shard(s).size_hint(), shard_items)
            << "feeder " << s << " must insert into its own shard";
        const std::uint64_t after = mon.totals().publishes;
        EXPECT_GT(after, before) << "no publishes counted from shard " << s;
        before = after;
    }

    for (std::uint32_t s = 0; s < q.num_shards(); ++s)
        q.shard(s).set_monitor(nullptr);
}

} // namespace
} // namespace klsm
