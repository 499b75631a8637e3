// The reclamation tier end to end at the item_pool level: chunk
// lifecycle (active -> released at a quiescent shrink -> revived by a
// later allocation), no release before the shrink however long the
// pool churns, version monotonicity across a release/regrow cycle, and
// the none-policy "byte-identical to seed" contract.  The concurrent
// churn test at the bottom is the ASan/TSan/UBSan no-use-after-reclaim
// witness for the whole stack: its shrinks between rounds leave
// shared-LSM entries pointing into released and revived chunks.

#include "mm/item_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "klsm/k_lsm.hpp"
#include "mm/reclaim/shrink.hpp"

namespace klsm {
namespace {

using pool_t = item_pool<std::uint32_t, std::uint64_t>;
using ref_t = item_ref<std::uint32_t, std::uint64_t>;
using item_t = item<std::uint32_t, std::uint64_t>;

mm::mem_placement with_policy(mm::reclaim_policy p) {
    mm::mem_placement place;
    place.reclaim.policy = p;
    return place;
}

TEST(Reclaim, NonePolicyBehavesExactlyLikeSeed) {
    pool_t pool; // default placement: reclamation off
    std::vector<ref_t> refs;
    for (std::uint32_t i = 0; i < 100; ++i) {
        auto r = pool.allocate(i, i);
        ASSERT_TRUE(r.take());
    }
    const auto snap = pool.stats().snapshot();
    EXPECT_EQ(snap.fresh_allocs, 1u) << "one item serves every life";
    EXPECT_EQ(snap.reuse_hits, 99u);
    EXPECT_EQ(snap.shrink_events, 0u);
    EXPECT_EQ(snap.reclaimed_chunks, 0u);
    EXPECT_EQ(snap.released_bytes, 0u);
    EXPECT_EQ(pool.quiescent_shrink(), 0u)
        << "shrink is a no-op when the policy does not enable it";
}

TEST(Reclaim, QuiescentShrinkReleasesFullyDeadChunks) {
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    pool_t pool{with_policy(mm::reclaim_policy::full)};
    // Chunks double: 256 + 512 fill the first two; 800 live items also
    // open (but do not fill) the third.
    std::vector<ref_t> refs;
    for (std::uint32_t i = 0; i < 800; ++i)
        refs.push_back(pool.allocate(i, i));
    for (auto &r : refs)
        ASSERT_TRUE(r.take());
    const std::size_t released = pool.quiescent_shrink();
    EXPECT_GE(released, 2u) << "both full, all-dead chunks must release";
    const auto census = pool.census();
    EXPECT_EQ(census.released, released);
    EXPECT_EQ(census.active, 0u);
    const auto snap = pool.stats().snapshot();
    EXPECT_EQ(snap.reclaimed_chunks, released) << "gauge tracks census";
    EXPECT_EQ(snap.shrink_events, released);
    EXPECT_GT(snap.released_bytes, 0u);
    EXPECT_LE(snap.reclaimed_chunks, snap.chunks)
        << "the memory-schema invariant must hold at the source";
    EXPECT_LE(snap.released_bytes, snap.bytes);
}

TEST(Reclaim, QuiescentShrinkReleasesOnlyAllDeadChunks) {
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    pool_t pool{with_policy(mm::reclaim_policy::full)};
    // Chunks 0-2 (items 0-255, 256-767, 768-1791) fill; two more open
    // chunk 3.
    std::vector<ref_t> refs;
    for (std::uint32_t i = 0; i < 1792 + 2; ++i)
        refs.push_back(pool.allocate(i, i));
    // Chunks 1 and 2 die; chunk 0 keeps its live items, and chunk 3,
    // still filling, is never released.
    for (std::size_t i = 256; i < 1794; ++i)
        ASSERT_TRUE(refs[i].take());

    EXPECT_EQ(pool.quiescent_shrink(), 2u);
    const auto census = pool.census();
    EXPECT_EQ(census.released, 2u);
    EXPECT_EQ(census.active, 1u) << "chunk 0 holds live items";
    // A shrink-enabled chunk of n items is n items rounded up to pages.
    const auto chunk_bytes = [](std::size_t items) {
        const std::size_t ps = mm::page_size();
        return (items * sizeof(item<std::uint32_t, std::uint64_t>) + ps -
                1) / ps * ps;
    };
    const auto snap = pool.stats().snapshot();
    ASSERT_EQ(snap.chunks, 4u);
    EXPECT_EQ(snap.bytes, chunk_bytes(256) + chunk_bytes(512) +
                              chunk_bytes(1024) + chunk_bytes(2048));
    EXPECT_EQ(snap.reclaimed_chunks, census.released);
    EXPECT_EQ(snap.shrink_events, census.released);
    EXPECT_EQ(snap.released_bytes, chunk_bytes(512) + chunk_bytes(1024));
    // The sweep keeps chunk 0 and the used part of chunk 3, and no item
    // of a released chunk.
    EXPECT_EQ(pool.capacity(), 256u + 2u);
}

TEST(Reclaim, SweepSkipsReleasedChunkBetweenActiveOnes) {
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    pool_t pool{with_policy(mm::reclaim_policy::full)};
    // Chunks 0-2 (items 0-255, 256-767, 768-1791) fill; two more open
    // chunk 3.
    std::vector<ref_t> refs;
    for (std::uint32_t i = 0; i < 1792 + 2; ++i)
        refs.push_back(pool.allocate(i, i));
    const auto in_chunk1 = [&](const item_t *p) {
        return p >= refs[256].it && p <= refs[767].it;
    };
    // Chunk 1 dies whole.  In chunks 0 and 2 every 16th item dies, and
    // so does chunk 0's last, so the sweep meets a dead item within its
    // budget all the way round and never needs the released chunk.
    std::set<const item_t *> dead;
    for (std::size_t i = 0; i < 1792; ++i) {
        if (i >= 256 && i < 768) {
            ASSERT_TRUE(refs[i].take());
        } else if (i % 16 == 0 || i == 255) {
            ASSERT_TRUE(refs[i].take());
            dead.insert(refs[i].it);
        }
    }
    ASSERT_EQ(pool.quiescent_shrink(), 1u);
    ASSERT_EQ(pool.census().released, 1u);
    EXPECT_EQ(pool.capacity(), 256u + 1024u + 2u);

    // Two laps of allocate-and-take: each allocation gets the next dead
    // item, never one of the released chunk's (their zeroed versions
    // read as dead), and the item after chunk 0's last is chunk 2's
    // first, one probe on.
    std::size_t skips = 0;
    const item_t *prev = nullptr;
    for (std::size_t i = 0; i < 2 * dead.size(); ++i) {
        ref_t r = pool.allocate(5000, 0);
        ASSERT_FALSE(in_chunk1(r.it)) << "allocation " << i;
        ASSERT_EQ(dead.count(r.it), 1u) << "allocation " << i;
        if (prev == refs[255].it) {
            EXPECT_EQ(r.it, refs[768].it);
            ++skips;
        }
        prev = r.it;
        ASSERT_TRUE(r.take());
    }
    EXPECT_GE(skips, 1u) << "no sweep stepped over the released chunk";
    EXPECT_EQ(pool.census().released, 1u);
    EXPECT_EQ(pool.stats().snapshot().fresh_allocs, 1792u + 2u);

    // Demand returns: allocations that keep their items use up the dead
    // ones, then revive the released chunk, and the sweep resumes
    // inside it.
    std::set<const item_t *> handed;
    for (std::size_t i = 0; i < dead.size(); ++i) {
        ref_t r = pool.allocate(6000, 0);
        ASSERT_EQ(dead.count(r.it), 1u) << "allocation " << i;
        ASSERT_TRUE(handed.insert(r.it).second) << "live item handed out";
    }
    EXPECT_EQ(pool.census().released, 1u);
    EXPECT_EQ(pool.allocate(7000, 0).it, refs[256].it)
        << "the sweep ran dry, so the released chunk must revive";
    EXPECT_EQ(pool.census().released, 0u);
    EXPECT_EQ(pool.allocate(7001, 0).it, refs[257].it)
        << "the sweep must resume inside the revived chunk";
    EXPECT_EQ(pool.capacity(), 1792u + 2u);
    EXPECT_EQ(pool.stats().snapshot().fresh_allocs, 1792u + 2u);
}

TEST(Reclaim, DeadChunksStayResidentUntilQuiescentShrink) {
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    pool_t pool{with_policy(mm::reclaim_policy::full)};
    // Chunks 0-2 fill exactly, and every item dies.
    constexpr std::uint32_t filled = 256 + 512 + 1024;
    std::vector<ref_t> refs;
    for (std::uint32_t i = 0; i < filled; ++i)
        refs.push_back(pool.allocate(i, i));
    for (auto &r : refs)
        ASSERT_TRUE(r.take());
    // Churn far past any allocation-driven cadence: with no shrink,
    // every dead chunk stays resident and in the sweep.
    constexpr std::uint32_t churn = 16 * 512;
    for (std::uint32_t i = 0; i < churn; ++i) {
        auto r = pool.allocate(5000 + i, 0);
        ASSERT_TRUE(r.take());
    }
    const auto before = pool.stats().snapshot();
    EXPECT_EQ(pool.census().released, 0u)
        << "a chunk was released while the pool was in use";
    EXPECT_EQ(before.shrink_events, 0u);
    EXPECT_EQ(before.fresh_allocs, filled);
    EXPECT_EQ(before.reuse_hits, churn) << "the sweep recycles every item";
    EXPECT_EQ(pool.capacity(), filled);

    EXPECT_EQ(pool.quiescent_shrink(), 3u);
    const auto census = pool.census();
    EXPECT_EQ(census.released, 3u);
    EXPECT_EQ(census.active, 0u);
    EXPECT_EQ(pool.stats().snapshot().shrink_events, 3u);
    EXPECT_EQ(pool.capacity(), 0u);
}

TEST(Reclaim, StaleTakeAgainstReleasedChunkFailsSafely) {
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    pool_t pool{with_policy(mm::reclaim_policy::full)};
    std::vector<ref_t> refs;
    for (std::uint32_t i = 0; i < 256; ++i)
        refs.push_back(pool.allocate(i, i));
    // A stale reference as a block would hold it: alive version.
    ref_t stale = refs[7];
    for (auto &r : refs)
        ASSERT_TRUE(r.take());
    ASSERT_GE(pool.quiescent_shrink(), 1u);
    // The chunk's pages were zeroed; the item reads version 0 (even =
    // dead).  Type stability holds: the dereference is safe and the
    // stale take fails exactly like any other version mismatch.
    EXPECT_EQ(stale.it->version(), 0u);
    EXPECT_FALSE(stale.alive());
    EXPECT_FALSE(stale.take());
}

TEST(Reclaim, RevivedChunkRestoresVersionFloor) {
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    pool_t pool{with_policy(mm::reclaim_policy::full)};
    std::vector<ref_t> refs;
    for (std::uint32_t i = 0; i < 256; ++i)
        refs.push_back(pool.allocate(i, i));
    item<std::uint32_t, std::uint64_t> *tracked = refs[0].it;
    const std::uint64_t alive_version = refs[0].version;
    for (auto &r : refs)
        ASSERT_TRUE(r.take());
    const std::uint64_t dead_version = tracked->version();
    ASSERT_GE(pool.quiescent_shrink(), 1u);
    // Demand returns: allocations must revive the released chunk (the
    // pool has nothing else) and every republished version must exceed
    // everything the chunk held before the zeroing — the monotone-
    // version ABA defense survives release/regrow.
    bool found = false;
    for (std::uint32_t i = 0; i < 256; ++i) {
        auto r = pool.allocate(1000 + i, 0);
        EXPECT_EQ(r.version & 1, 1u);
        EXPECT_GT(r.version, alive_version);
        if (r.it == tracked) {
            found = true;
            EXPECT_GT(r.version, dead_version);
        }
    }
    EXPECT_TRUE(found) << "revived chunk must serve its items again";
    const auto census = pool.census();
    EXPECT_EQ(census.released, 0u);
    EXPECT_GE(census.active, 1u);
    const auto snap = pool.stats().snapshot();
    EXPECT_GE(snap.reactivated_chunks, 1u);
    EXPECT_EQ(snap.reclaimed_chunks, 0u)
        << "the reclaimed gauge must fall back on reactivation";
}

TEST(Reclaim, ShrinkThenRegrowRefaultsTheReleasedChunk) {
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    pool_t pool{with_policy(mm::reclaim_policy::full)};
    std::vector<ref_t> refs;
    for (std::uint32_t i = 0; i < 256; ++i)
        refs.push_back(pool.allocate(i, i));
    for (auto &r : refs)
        ASSERT_TRUE(r.take());
    ASSERT_GE(pool.quiescent_shrink(), 1u);
    const auto shrunk = pool.census();
    EXPECT_EQ(shrunk.released, 1u);
    EXPECT_EQ(shrunk.active, 0u);
    EXPECT_EQ(pool.capacity(), 0u) << "a released chunk's items are out";
    EXPECT_EQ(pool.stats().snapshot().reclaimed_chunks, 1u);
    // Regrow: revival refaults the released pages.
    std::vector<ref_t> regrown;
    for (std::uint32_t i = 0; i < 256; ++i)
        regrown.push_back(pool.allocate(i, i));
    const auto grown = pool.census();
    EXPECT_EQ(grown.released, 0u);
    EXPECT_EQ(grown.active, 1u);
    const auto snap = pool.stats().snapshot();
    EXPECT_EQ(snap.chunks, 1u) << "regrowth revives, it does not allocate";
    EXPECT_EQ(snap.reclaimed_chunks, 0u);
    EXPECT_EQ(snap.reactivated_chunks, 1u);
    for (std::uint32_t i = 0; i < 256; ++i) {
        EXPECT_EQ(regrown[i].key, i);
        EXPECT_EQ(regrown[i].it->value(), i) << "refaulted page lost a write";
    }
}

TEST(Reclaim, MappedChunkReleasesAndRevives) {
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    pool_t pool{with_policy(mm::reclaim_policy::full)};
    // Chunks of 256 to 4096 items fill exactly; the last (96 KiB of
    // 24-byte items) is the first mapped storage (mm/placement.hpp).
    constexpr std::uint32_t n = 256 + 512 + 1024 + 2048 + 4096;
    static_assert(2048 * sizeof(item<std::uint32_t, std::uint64_t>) <
                  mm::mapped_array_bytes);
    static_assert(4096 * sizeof(item<std::uint32_t, std::uint64_t>) >=
                  mm::mapped_array_bytes);
    std::vector<ref_t> refs;
    for (std::uint32_t i = 0; i < n; ++i)
        refs.push_back(pool.allocate(i, i));
    const ref_t stale = refs[n - 1]; // in the mapped chunk
    for (auto &r : refs)
        ASSERT_TRUE(r.take());
    ASSERT_EQ(pool.quiescent_shrink(), 5u);
    EXPECT_EQ(pool.census().released, 5u);
    EXPECT_EQ(stale.it->version(), 0u) << "released pages read as zero";
    EXPECT_FALSE(stale.take());
    // Demand returns: every chunk revives above its version floor.
    std::vector<ref_t> regrown;
    for (std::uint32_t i = 0; i < n; ++i)
        regrown.push_back(pool.allocate(i, i));
    EXPECT_EQ(pool.census().released, 0u);
    const auto snap = pool.stats().snapshot();
    EXPECT_EQ(snap.chunks, 5u) << "regrowth revives, it does not allocate";
    EXPECT_EQ(snap.reactivated_chunks, 5u);
    bool found = false;
    for (std::uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(regrown[i].it->value(), i) << "refaulted page lost a write";
        if (regrown[i].it == stale.it) {
            found = true;
            EXPECT_GT(regrown[i].version, stale.version);
        }
    }
    EXPECT_TRUE(found) << "the mapped chunk must serve its items again";
}

TEST(Reclaim, ConcurrentChurnThroughKlsmWithFullReclaim) {
    // The sanitizer witness: rounds of four-thread churn on a k_lsm
    // whose pools run the full reclamation tier, each followed by a
    // quiescent shrink.  The next round starts with shared-LSM entries
    // pointing into released chunks and revives them under contention.
    // Under ASan/TSan this is the no-use-after-reclaim / no-race proof
    // for the sweep + shrink machinery; every key must come out once.
    k_lsm<std::uint32_t, std::uint32_t> q{
        64, {}, with_policy(mm::reclaim_policy::full)};
    constexpr unsigned threads = 4;
    constexpr unsigned rounds = 4;
    constexpr std::uint32_t ops = 4000;
    std::atomic<std::uint32_t> next_key{0};
    std::vector<std::vector<std::uint32_t>> deleted(threads);
    for (unsigned round = 0; round < rounds; ++round) {
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                std::uint32_t key, value;
                for (std::uint32_t i = 0; i < ops; ++i) {
                    // Phase-shifted mix: the first half inserts twice
                    // as often as it deletes, the second half the
                    // reverse, so chunks fill, then die.
                    const bool ins = (i < ops / 2) ? (i % 3) != 0
                                                   : (i % 3) == 0;
                    if (ins)
                        q.insert(next_key.fetch_add(
                                     1, std::memory_order_relaxed),
                                 t);
                    else if (q.try_delete_min(key, value))
                        deleted[t].push_back(key);
                }
                // Drain, so most of the round's items are dead and
                // the shrink finds whole dead chunks.
                while (q.try_delete_min(key, value))
                    deleted[t].push_back(key);
            });
        }
        for (auto &w : workers)
            w.join();
        q.quiescent_shrink();
    }
    const auto stats = q.memory_stats();
    const auto &s = stats.items;
    EXPECT_LE(s.reclaimed_chunks, s.chunks);
    EXPECT_LE(s.released_bytes, s.bytes);
    EXPECT_GT(s.fresh_allocs, 0u);
    EXPECT_GT(s.reuse_hits, 0u)
        << "sustained churn must recycle, not only grow";
    if (mm::reclaim::release_pages_supported()) {
        EXPECT_GT(s.shrink_events, 0u) << "no item chunk was released";
    }
    // Conservation: the deleted keys plus the drained ones are exactly
    // the inserted keys, each once.
    std::vector<std::uint32_t> out;
    for (const auto &d : deleted)
        out.insert(out.end(), d.begin(), d.end());
    std::uint32_t key, value;
    while (q.try_delete_min(key, value))
        out.push_back(key);
    EXPECT_FALSE(q.try_delete_min(key, value));
    std::sort(out.begin(), out.end());
    ASSERT_EQ(out.size(), next_key.load());
    for (std::uint32_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i) << "key lost or duplicated";
}

} // namespace
} // namespace klsm
