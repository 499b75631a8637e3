// contention_monitor: per-thread counter slots, the totals merge and
// its derived rates, and concurrent counting (the slots are the
// src/stats/ recorder-slot pattern, so the merge must be exact after
// joins).

#include "adapt/contention_monitor.hpp"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace klsm {
namespace adapt {
namespace {

TEST(ContentionMonitor, CountsShowUpInTotals) {
    contention_monitor mon;
    mon.count(event::shared_publish);
    mon.count(event::shared_publish);
    mon.count(event::shared_publish_retry);
    mon.count(event::delete_hit_shared);
    mon.count(event::delete_hit_local);
    mon.count(event::spy);
    const contention_window t = mon.totals();
    EXPECT_EQ(t.publishes, 2u);
    EXPECT_EQ(t.publish_retries, 1u);
    EXPECT_EQ(t.shared_hits, 1u);
    EXPECT_EQ(t.local_hits, 1u);
    EXPECT_EQ(t.spies, 1u);
    EXPECT_FALSE(t.idle());
}

TEST(ContentionMonitor, SharedFractionTracksHitMix) {
    contention_monitor mon;
    for (int i = 0; i < 3; ++i)
        mon.count(event::delete_hit_shared);
    mon.count(event::delete_hit_local);
    EXPECT_DOUBLE_EQ(mon.totals().shared_fraction(), 0.75);
}

TEST(ContentionMonitor, SettlesStayOutOfTheFailRate) {
    // A settle follows a publish and is no publish attempt: neither it
    // nor a discarded settle may move the fail rate the metrics sampler
    // and the ledger's publish_retry_ratio read.
    contention_monitor settles_only;
    settles_only.count(event::shared_settle);
    settles_only.count(event::shared_settle_discard);
    EXPECT_TRUE(settles_only.totals().idle());
    EXPECT_DOUBLE_EQ(settles_only.totals().fail_rate(), 0.0);

    contention_monitor mon;
    mon.count(event::shared_publish);
    mon.count(event::shared_publish_retry);
    for (int i = 0; i < 3; ++i)
        mon.count(event::shared_settle);
    mon.count(event::shared_settle_discard);
    const contention_window w = mon.totals();
    EXPECT_EQ(w.settles, 3u);
    EXPECT_EQ(w.settle_discards, 1u);
    EXPECT_EQ(w.publish_attempts(), 2u);
    EXPECT_DOUBLE_EQ(w.fail_rate(), 0.5);
}

TEST(ContentionMonitor, EmptyRatesAreZeroNotNan) {
    const contention_monitor mon;
    const contention_window w = mon.totals();
    EXPECT_DOUBLE_EQ(w.fail_rate(), 0.0);
    EXPECT_DOUBLE_EQ(w.shared_fraction(), 0.0);
    EXPECT_TRUE(w.idle());
}

TEST(ContentionMonitor, ConcurrentCountsMergeExactly) {
    contention_monitor mon;
    constexpr unsigned threads = 8;
    constexpr std::uint64_t per_thread = 20000;
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t) {
        ts.emplace_back([&] {
            for (std::uint64_t i = 0; i < per_thread; ++i) {
                mon.count(event::shared_publish);
                if (i % 4 == 0)
                    mon.count(event::delete_hit_local);
            }
        });
    }
    for (auto &t : ts)
        t.join();
    const contention_window w = mon.totals();
    EXPECT_EQ(w.publishes, threads * per_thread);
    EXPECT_EQ(w.local_hits, threads * (per_thread / 4));
}

} // namespace
} // namespace adapt
} // namespace klsm
