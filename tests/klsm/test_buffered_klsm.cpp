// Buffered k-LSM: per-thread insert buffers flushing into dist_lsm as
// pre-sorted blocks, the handle's one-pair carry slot, and the extended
// rank bound rho = (T+1)*k + T*buffer_total those buffers must stay
// inside.

#include "klsm/k_lsm.hpp"

#include "harness/quality.hpp"
#include "klsm/pq_concept.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

namespace klsm {
namespace {

using pq_t = k_lsm<std::uint32_t, std::uint32_t>;

TEST(BufferedKlsm, SatisfiesBufferingConcepts) {
    static_assert(relaxed_priority_queue<pq_t>);
    static_assert(handle_pq<pq_t>);
    static_assert(dynamic_buffering<pq_t>);
}

// The depth is set once, before any operation, so one buffer_total()
// holds for the whole run and rank bounds charge exactly it.
TEST(BufferedKlsm, BufferTotalAccounting) {
    pq_t q{16};
    EXPECT_EQ(q.buffer_total(), 0u);
    q.set_buffer_depth(16);
    // The staged inserts plus the carry slot for an unserved popped item.
    EXPECT_EQ(q.buffer_total(), 17u);
    // Before the first operation the last setting holds.
    q.set_buffer_depth(0);
    EXPECT_EQ(q.buffer_total(), 0u);
    q.set_buffer_depth(4);
    auto h = q.get_handle();
    for (std::uint32_t i = 0; i < 3; ++i)
        h.insert(i, i);
    EXPECT_EQ(h.inserts_buffered(), 3u) << "the handle stages to depth 4";
    h.insert(3, 3);
    EXPECT_EQ(h.inserts_buffered(), 0u) << "the fourth insert flushes";
#ifndef NDEBUG
    EXPECT_DEATH(q.set_buffer_depth(8), "before any operation")
        << "the depth changed after a thread operated";
#endif
    EXPECT_EQ(q.buffer_total(), 5u);
}

TEST(BufferedKlsm, InsertBatchPublishesSortedBlock) {
    pq_t q{8};
    // insert_batch takes keys pre-sorted in decreasing order (block
    // storage order, min at the top).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> kv;
    for (std::uint32_t i = 0; i < 10; ++i)
        kv.push_back({90 - 10 * i, i});
    q.insert_batch(kv.data(), kv.size());
    std::uint32_t k, v, prev = 0;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.try_delete_min(k, v));
        ASSERT_GE(k, prev) << "single-threaded k-LSM drains in order";
        prev = k;
    }
    EXPECT_FALSE(q.try_delete_min(k, v));
}

TEST(BufferedKlsm, StagedInsertsInvisibleUntilFlush) {
    pq_t q{16};
    q.set_buffer_depth(8);
    auto h = q.get_handle();
    for (std::uint32_t i = 0; i < 5; ++i)
        h.insert(10 * i, i);
    EXPECT_EQ(h.inserts_buffered(), 5u);
    std::uint32_t k, v;
    // Direct delete-min sees nothing: the ops are staged in the handle.
    EXPECT_FALSE(q.try_delete_min(k, v));
    // Flush-on-quiesce: after flush every staged op is visible to any
    // other accessor of the queue.
    h.flush();
    EXPECT_EQ(h.inserts_buffered(), 0u);
    std::set<std::uint32_t> seen;
    while (q.try_delete_min(k, v))
        seen.insert(k);
    EXPECT_EQ(seen.size(), 5u);
}

TEST(BufferedKlsm, BufferFillsThenAutoFlushes) {
    pq_t q{16};
    q.set_buffer_depth(4);
    auto h = q.get_handle();
    for (std::uint32_t i = 0; i < 4; ++i)
        h.insert(i, i);
    // Depth reached: the handle flushed the block on its own.
    EXPECT_EQ(h.inserts_buffered(), 0u);
    EXPECT_EQ(q.size_hint(), 4u);
}

TEST(BufferedKlsm, HandleDestructionFlushes) {
    pq_t q{16};
    q.set_buffer_depth(8);
    for (std::uint32_t i = 0; i < 12; ++i)
        q.insert(i, i);
    {
        auto h = q.get_handle();
        for (std::uint32_t i = 100; i < 105; ++i)
            h.insert(i, i);
        std::uint32_t k, v;
        ASSERT_TRUE(h.try_delete_min(k, v));
        EXPECT_EQ(k, 0u);
        EXPECT_FALSE(h.carrying()) << "the popped key was served";
        // Destructor must flush the staged inserts.
    }
    std::uint32_t k, v;
    std::set<std::uint32_t> seen;
    while (q.try_delete_min(k, v))
        seen.insert(k);
    EXPECT_EQ(seen.size(), 16u); // 12 prefilled + 5 staged - 1 served
}

TEST(BufferedKlsm, HandleNeverSkipsOwnStagedInserts) {
    pq_t q{16};
    q.set_buffer_depth(8);
    q.insert(50, 0);
    auto h = q.get_handle();
    h.insert(3, 30); // staged, smaller than the published 50
    std::uint32_t k, v;
    ASSERT_TRUE(h.try_delete_min(k, v));
    EXPECT_EQ(k, 3u) << "delete served a published key over the "
                        "handle's own smaller staged insert";
    ASSERT_TRUE(h.try_delete_min(k, v));
    EXPECT_EQ(k, 50u);
    EXPECT_FALSE(h.try_delete_min(k, v));
}

// A popped key that loses to a smaller staged insert stays in the
// handle's carry slot; flush() and the destructor must both put it back.
TEST(BufferedKlsm, CarriedPairIsRepublished) {
    pq_t q{16};
    q.set_buffer_depth(8);
    std::uint32_t k, v;
    for (const bool by_flush : {true, false}) {
        q.insert(50, 5);
        {
            auto h = q.get_handle();
            h.insert(3, 30);
            ASSERT_TRUE(h.try_delete_min(k, v));
            EXPECT_EQ(k, 3u);
            ASSERT_TRUE(h.carrying()) << "the popped 50 was not carried";
            EXPECT_FALSE(q.try_delete_min(k, v))
                << "a carried pair is hidden until it is republished";
            if (by_flush) {
                h.flush();
                EXPECT_FALSE(h.carrying());
            }
        }
        ASSERT_TRUE(q.try_delete_min(k, v))
            << (by_flush ? "flush()" : "~handle") << " lost the carry";
        EXPECT_EQ(k, 50u);
        EXPECT_EQ(v, 5u);
        EXPECT_FALSE(q.try_delete_min(k, v));
    }
}

TEST(BufferedKlsm, ConcurrentHandleConservation) {
    pq_t q{16};
    q.set_buffer_depth(8);
    constexpr unsigned threads = 8;
    constexpr std::uint32_t per_thread = 4000;
    std::atomic<std::uint64_t> deleted{0};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            xoroshiro128 rng{311 + 17 * t};
            auto h = q.get_handle();
            std::uint32_t k, v;
            for (std::uint32_t i = 0; i < per_thread; ++i) {
                h.insert(static_cast<std::uint32_t>(rng.bounded(1 << 20)),
                         0);
                if (rng.bounded(2) == 0 && h.try_delete_min(k, v))
                    deleted.fetch_add(1);
            }
            // ~handle flushes: staged inserts + the carried pair.
        });
    }
    for (auto &th : ts)
        th.join();
    std::uint32_t k, v;
    std::uint64_t drained = 0;
    while (q.try_delete_min(k, v))
        ++drained;
    EXPECT_EQ(deleted.load() + drained,
              std::uint64_t{threads} * per_thread);
}

// The acceptance-shaped claim: under 8-thread concurrent churn through
// buffered handles, the measured max rank error stays inside the
// extended bound rho = (T+1)*k + T*buffer_total.
TEST(BufferedKlsm, RankErrorWithinExtendedBoundUnderChurn) {
    pq_t q{16};
    q.set_buffer_depth(8);
    quality_params params;
    params.threads = 8;
    params.prefill = 5000;
    params.ops_per_thread = 5000;
    params.key_range = 1 << 20;
    const quality_result res = measure_rank_error(q, params);
    ASSERT_GT(res.deletes, 0u);
    const std::uint64_t rho = rank_error_bound(
        params.threads, q.relaxation(), q.buffer_total());
    EXPECT_LE(res.rank_max, rho)
        << "rank error beyond the buffered bound";
}

} // namespace
} // namespace klsm
