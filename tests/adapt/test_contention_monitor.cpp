// contention_monitor: per-thread counter slots, windowed merge, EWMA
// folding, and concurrent counting (the slots are the src/stats/
// recorder-slot pattern, so the merge must be exact after joins).

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

TEST(ContentionMonitor, WindowsAreDeltas) {
    contention_monitor mon;
    for (int i = 0; i < 3; ++i)
        mon.count(event::shared_publish);
    mon.count(event::shared_publish_retry);
    const contention_window w1 = mon.sample_window();
    EXPECT_EQ(w1.publishes, 3u);
    EXPECT_EQ(w1.publish_retries, 1u);
    EXPECT_DOUBLE_EQ(w1.fail_rate(), 0.25);

    // Nothing happened since: the next window is empty, totals are not.
    const contention_window w2 = mon.sample_window();
    EXPECT_TRUE(w2.idle());
    EXPECT_EQ(w2.publishes, 0u);
    EXPECT_EQ(mon.totals().publishes, 3u);
}

TEST(ContentionMonitor, EwmaFoldsWindowRates) {
    contention_monitor mon{0.25};
    // Window 1: fail rate 0.5 -> EWMA 0.25 * 0.5 = 0.125.
    mon.count(event::shared_publish);
    mon.count(event::shared_publish_retry);
    const contention_window w1 = mon.sample_window();
    EXPECT_DOUBLE_EQ(w1.fail_rate_ewma, 0.125);
    // Window 2: identical -> 0.25 * 0.5 + 0.75 * 0.125 = 0.21875.
    mon.count(event::shared_publish);
    mon.count(event::shared_publish_retry);
    const contention_window w2 = mon.sample_window();
    EXPECT_DOUBLE_EQ(w2.fail_rate_ewma, 0.21875);
}

TEST(ContentionMonitor, IdleWindowsFreezeTheEwma) {
    contention_monitor mon{0.5};
    mon.count(event::shared_publish_retry);
    mon.count(event::shared_publish);
    const double after_activity = mon.sample_window().fail_rate_ewma;
    EXPECT_GT(after_activity, 0.0);
    // Idle windows carry the EWMA forward instead of decaying it into
    // a phantom all-quiet signal.
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(mon.sample_window().fail_rate_ewma,
                         after_activity);
}

TEST(ContentionMonitor, ActivePublishFreeWindowsDecayTheFailEwma) {
    contention_monitor mon{0.5};
    mon.count(event::shared_publish);
    mon.count(event::shared_publish_retry);
    const double contended = mon.sample_window().fail_rate_ewma;
    ASSERT_GT(contended, 0.0);
    // A delete-heavy phase: hits keep arriving but publishes stop.
    // That is evidence of a zero fail rate, and must decay the EWMA
    // (only fully idle windows freeze it).
    mon.count(event::delete_hit_local);
    const double after = mon.sample_window().fail_rate_ewma;
    EXPECT_LT(after, contended);
    EXPECT_DOUBLE_EQ(after, 0.5 * contended);
}

TEST(ContentionMonitor, SharedFractionTracksHitMix) {
    contention_monitor mon{1.0}; // undamped: window rate == EWMA
    for (int i = 0; i < 3; ++i)
        mon.count(event::delete_hit_shared);
    mon.count(event::delete_hit_local);
    const contention_window w = mon.sample_window();
    EXPECT_DOUBLE_EQ(w.shared_fraction(), 0.75);
    EXPECT_DOUBLE_EQ(w.shared_fraction_ewma, 0.75);
}

TEST(ContentionMonitor, SettlesStayOutOfTheFailRate) {
    // A settle follows a publish and is no publish attempt: neither it
    // nor a discarded settle may move the fail rate the metrics sampler
    // and the ledger's publish_retry_ratio read.
    contention_monitor mon{1.0};
    mon.count(event::shared_publish);
    mon.count(event::shared_publish_retry);
    for (int i = 0; i < 3; ++i)
        mon.count(event::shared_settle);
    mon.count(event::shared_settle_discard);
    const contention_window w = mon.sample_window();
    EXPECT_EQ(w.settles, 3u);
    EXPECT_EQ(w.settle_discards, 1u);
    EXPECT_EQ(w.publish_attempts(), 2u);
    EXPECT_DOUBLE_EQ(w.fail_rate(), 0.5);
    EXPECT_DOUBLE_EQ(w.fail_rate_ewma, 0.5);
    // Settles alone leave a window idle, so the EWMA holds.
    mon.count(event::shared_settle);
    const contention_window w2 = mon.sample_window();
    EXPECT_EQ(w2.settles, 1u);
    EXPECT_TRUE(w2.idle());
    EXPECT_DOUBLE_EQ(w2.fail_rate_ewma, 0.5);
    EXPECT_EQ(mon.totals().settles, 4u);
    EXPECT_EQ(mon.totals().settle_discards, 1u);
}

TEST(ContentionMonitor, EmptyRatesAreZeroNotNan) {
    const contention_window w;
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
