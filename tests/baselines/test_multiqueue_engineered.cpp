// The engineered-MultiQueue refinements (stickiness, handle buffers) on
// top of the classic two-choice contract that test_multiqueue.cpp
// covers.  Its 4-ary backing heap is tested in test_binary_heap.cpp.

#include "baselines/multiqueue.hpp"

#include "harness/quality.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

namespace klsm {
namespace {

using mq_t = multiqueue<std::uint32_t, std::uint64_t>;

TEST(EngineeredMultiQueue, CtorExposesTuning) {
    mq_t q{4, 2, 16, 32};
    EXPECT_EQ(q.queue_count(), 8u);
    EXPECT_EQ(q.stickiness(), 16u);
    EXPECT_EQ(q.buffer_size(), 32u);
    // The two-arg 2014 construction still compiles with defaults.
    mq_t legacy{8, 2};
    EXPECT_EQ(legacy.stickiness(), 8u);
    EXPECT_EQ(legacy.buffer_size(), 16u);
}

TEST(EngineeredMultiQueue, StickinessPeriodHonored) {
    // buffer = 1 makes every handle insert exactly one queue access, so
    // with stickiness S the sticky index must be constant within each
    // run of S accesses and may only change at period boundaries
    // (single thread: try_lock never fails, so no early resample).
    constexpr std::size_t S = 4;
    mq_t q{4, 2, S, 1};
    auto h = q.get_handle();
    std::vector<std::size_t> idx;
    for (std::uint32_t i = 0; i < 3 * S; ++i) {
        h.insert(i, i);
        idx.push_back(h.sticky_insert_queue());
    }
    for (std::size_t i = 0; i < idx.size(); ++i) {
        ASSERT_NE(idx[i], mq_t::npos);
        if (i % S != 0) {
            EXPECT_EQ(idx[i], idx[i - 1])
                << "resampled mid-period at access " << i;
        }
    }
}

TEST(EngineeredMultiQueue, InsertionBufferStagesThenFlushes) {
    mq_t q{2, 2, 8, 16};
    {
        auto h = q.get_handle();
        for (std::uint32_t i = 0; i < 5; ++i)
            h.insert(i, i);
        EXPECT_EQ(h.inserts_buffered(), 5u);
        // Staged inserts are invisible to the heaps until flush.
        EXPECT_EQ(q.size_hint(), 0u);
        h.flush();
        EXPECT_EQ(h.inserts_buffered(), 0u);
        EXPECT_EQ(q.size_hint(), 5u);
        // Filling to the buffer capacity flushes automatically.
        for (std::uint32_t i = 100; i < 116; ++i)
            h.insert(i, i);
        EXPECT_EQ(h.inserts_buffered(), 0u);
        EXPECT_EQ(q.size_hint(), 21u);
    }
    std::uint32_t k;
    std::uint64_t v;
    std::set<std::uint32_t> seen;
    while (q.try_delete_min(k, v))
        seen.insert(k);
    EXPECT_EQ(seen.size(), 21u);
}

TEST(EngineeredMultiQueue, BuffersFlushOnHandleDestruction) {
    // One queue, so the delete's refill pulls a full buffer of 8 keys.
    // Over several queues the 20 keys land at random, and in ~2% of
    // runs the refill's pick holds a single key, which leaves nothing
    // cached to flush.
    mq_t q{1, 1, 8, 8};
    ASSERT_EQ(q.queue_count(), 1u);
    for (std::uint32_t i = 0; i < 20; ++i)
        q.insert(i, i);
    {
        auto h = q.get_handle();
        // Stage some inserts and pull one delete so the deletion buffer
        // holds unserved cached keys.
        for (std::uint32_t i = 100; i < 105; ++i)
            h.insert(i, i);
        std::uint32_t k;
        std::uint64_t v;
        ASSERT_TRUE(h.try_delete_min(k, v));
        EXPECT_GT(h.deletes_cached(), 0u);
        // Handle destroyed here: staged inserts and the unserved cache
        // must both reach the heaps.
    }
    std::uint32_t k;
    std::uint64_t v;
    std::set<std::uint32_t> seen;
    while (q.try_delete_min(k, v))
        seen.insert(k);
    // 20 prefilled + 5 staged - 1 served via the handle.
    EXPECT_EQ(seen.size(), 24u);
}

TEST(EngineeredMultiQueue, HandleNeverSkipsOwnStagedInserts) {
    mq_t q{2, 2, 8, 16};
    q.insert(50, 0);
    auto h = q.get_handle();
    h.insert(3, 0); // staged, smaller than everything published
    std::uint32_t k;
    std::uint64_t v;
    ASSERT_TRUE(h.try_delete_min(k, v));
    EXPECT_EQ(k, 3u) << "delete served a published key over the "
                        "handle's own smaller staged insert";
}

TEST(EngineeredMultiQueue, EmptyQueueSelfServesThenReportsEmpty) {
    mq_t q{2, 2, 8, 16};
    auto h = q.get_handle();
    h.insert(7, 70);
    std::uint32_t k;
    std::uint64_t v;
    ASSERT_TRUE(h.try_delete_min(k, v));
    EXPECT_EQ(k, 7u);
    EXPECT_EQ(v, 70u);
    EXPECT_FALSE(h.try_delete_min(k, v));
}

TEST(EngineeredMultiQueue, ConcurrentHandleConservation) {
    mq_t q{4, 2, 8, 16};
    constexpr int threads = 4, per_thread = 3000;
    std::atomic<std::uint64_t> deleted{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            xoroshiro128 rng{static_cast<std::uint64_t>(t) * 7 + 3};
            auto h = q.get_handle();
            std::uint32_t k;
            std::uint64_t v;
            for (int i = 0; i < per_thread; ++i) {
                h.insert(
                    static_cast<std::uint32_t>(rng.bounded(1 << 20)), 1);
                if (rng.bounded(2) == 0 && h.try_delete_min(k, v))
                    deleted.fetch_add(1);
            }
            // ~handle flushes staged inserts + unserved cached deletes.
        });
    }
    for (auto &t : ts)
        t.join();
    std::uint32_t k;
    std::uint64_t v;
    std::uint64_t drained = 0;
    while (q.try_delete_min(k, v))
        ++drained;
    EXPECT_EQ(deleted.load() + drained,
              std::uint64_t{threads} * per_thread);
}

TEST(EngineeredMultiQueue, EmpiricalRankErrorStaysOrderTC) {
    // Two-choice over c*T queues keeps the expected rank error O(c*T)
    // per delete; handle buffers add O(T*buffer).  With T=4, c=2,
    // buffer=8 both terms are tiny against the 64k key range, so the
    // mean must stay small and the max far below a quality collapse.
    //
    // How the scheduler interleaves the four threads moves one run's
    // mean between ~80 and ~260, and a single run exceeds 200 with
    // probability p <= 0.11.  So the test takes a fixed sample of nine
    // independent runs and bounds the medians: it fails spuriously only
    // when >= 5 of 9 runs exceed, P = sum_{i>=5} C(9,i) p^i (1-p)^(9-i)
    // ~ 0.14% at p = 0.11.  Every run counts; none is retried.  The
    // runs are independent only because thread_rng seeds differ
    // between thread generations (rng.hpp).
    constexpr int runs = 9;
    std::vector<double> means;
    std::vector<std::uint64_t> maxes;
    for (int r = 0; r < runs; ++r) {
        mq_t q{4, 2, 8, 8};
        quality_params params;
        params.threads = 4;
        params.prefill = 4000;
        params.ops_per_thread = 5000;
        params.key_range = 1 << 16;
        const quality_result res = measure_rank_error(q, params);
        ASSERT_GT(res.deletes, 0u);
        means.push_back(res.mean_rank());
        maxes.push_back(res.rank_max);
    }
    std::sort(means.begin(), means.end());
    std::sort(maxes.begin(), maxes.end());
    EXPECT_LT(means[runs / 2], 200.0) << "median mean rank error collapsed";
    EXPECT_LT(maxes[runs / 2], 5000u) << "median max rank error collapsed";
}

} // namespace
} // namespace klsm
