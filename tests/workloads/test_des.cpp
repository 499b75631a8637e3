// DES workload (src/workloads/des.hpp): the PHOLD model must hit its
// commit target, keep the population causally sane on an exact queue,
// and stay within a generous violation budget even when relaxed.

#include <cstdint>

#include <gtest/gtest.h>

#include "baselines/spin_heap.hpp"
#include "klsm/k_lsm.hpp"
#include "workloads/des.hpp"

namespace {

using namespace klsm::workloads;

des_params small_run(unsigned threads) {
    des_params p;
    p.lps = 64;
    p.population = 1024;
    p.target_events = 20000;
    p.mean_delay = 64;
    p.threads = threads;
    p.seed = 7;
    return p;
}

TEST(DesSearch, SingleThreadExactHeapHasZeroViolations) {
    // One worker on an exact queue pops globally nondecreasing
    // timestamps, so no LP clock can ever run ahead of a popped event.
    klsm::spin_heap<std::uint64_t, std::uint64_t> q;
    const auto res = run_des(q, small_run(1));
    EXPECT_GE(res.committed, 20000u);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_EQ(res.max_lag, 0u);
    EXPECT_GT(res.virtual_time, 0u);
    EXPECT_GT(res.elapsed_s, 0.0);
}

TEST(DesSearch, CommitsReachTargetUnderKlsm) {
    klsm::k_lsm<std::uint64_t, std::uint64_t> q{256};
    auto p = small_run(4);
    // Keep the population above k so the shared (relaxed) component is
    // actually exercised.
    p.population = 2048;
    const auto res = run_des(q, p);
    EXPECT_EQ(res.committed, p.target_events)
        << "workers claim exactly the target, never more";
    EXPECT_LE(res.violations, res.committed);
    // Self-messaging keeps the population constant: every commit
    // schedules exactly one successor.
    EXPECT_EQ(res.scheduled, res.committed);
}

TEST(DesSearch, LookaheadAbsorbsSmallLag) {
    // With lookahead L every successor is >= L+1 in the future and a
    // commit only counts as a violation beyond L — so an exact queue
    // stays at zero and virtual time advances at least as fast.
    klsm::spin_heap<std::uint64_t, std::uint64_t> q;
    auto p = small_run(1);
    p.lookahead = 32;
    const auto res = run_des(q, p);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_GE(res.committed, p.target_events);
}

TEST(DesSearch, ViolationFractionIsConsistent) {
    klsm::k_lsm<std::uint64_t, std::uint64_t> q{1024};
    auto p = small_run(4);
    p.population = 4096;
    const auto res = run_des(q, p);
    ASSERT_GT(res.committed, 0u);
    const double frac = res.violation_fraction();
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
    EXPECT_DOUBLE_EQ(frac, static_cast<double>(res.violations) /
                               static_cast<double>(res.committed));
    if (res.violations > 0) {
        EXPECT_GT(res.max_lag, 0u);
    }
}

} // namespace
