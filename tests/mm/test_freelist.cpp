// Sweep recycling under concurrent takers.  An item pool has one
// recycling path: its owner's sweep finds items whose version turned
// even (taken by any thread) and republishes them.  Here several threads
// take one pool's items while the owner keeps allocating, so the sweep
// races the takers' CAS on every item it inspects.  The checks: the
// sweep never hands out a live item, every published reference is taken
// exactly once, and a stale reference's take fails after its item is
// reused.  The `full` run works in rounds: between rounds the takers
// pause, the owner runs quiescent_shrink() and releases the dead
// chunks, and the takers resume with stale references into chunks that
// are released or, once the next round's surge revives them, back in
// service.  A CONCURRENT test, so it also runs under TSan.

#include "mm/item_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mm/reclaim/shrink.hpp"

namespace klsm {
namespace {

using pool_t = item_pool<std::uint32_t, std::uint64_t>;
using item_t = item<std::uint32_t, std::uint64_t>;
using ref_t = item_ref<std::uint32_t, std::uint64_t>;

struct race_result {
    std::uint64_t taken = 0;
    std::uint64_t failed_takes = 0;
    std::uint64_t stale_wins = 0;
    std::uint64_t reused = 0;
    std::uint64_t bad_versions = 0;
    std::uint64_t released_chunks = 0;
    /// Stale references the owner found on zeroed (released) pages
    /// right after a shrink.
    std::uint64_t zeroed_refs = 0;
    mm::pool_alloc_snapshot stats;
};

/// The owner allocates `rounds` x `per_round` items.  In each round the
/// takers start once the round's first `surge` are published, so the
/// pool grows to `surge` items; from then on the owner stays at most
/// `lead` items ahead of the takers, so the sweep recycles most
/// allocations.  Between rounds the takers wait for the next publish
/// while the owner runs quiescent_shrink().  From the second round on,
/// each taker also tries the stale reference the previous round
/// published at the same position.
race_result race(mm::reclaim_policy policy, unsigned takers,
                 std::uint32_t rounds, std::uint32_t per_round,
                 std::uint32_t surge, std::uint32_t lead) {
    mm::mem_placement place;
    place.reclaim.policy = policy;
    pool_t pool{place, 3};
    const std::uint32_t total = rounds * per_round;

    // refs[i] is written once by the owner before `published` covers i.
    std::vector<ref_t> refs(total);
    std::atomic<std::uint32_t> published{0};
    std::atomic<std::uint32_t> claimed{0};
    std::atomic<std::uint32_t> done{0};
    std::atomic<std::uint64_t> taken{0}, failed{0}, stale_wins{0};

    std::vector<std::thread> ts;
    for (unsigned t = 0; t < takers; ++t) {
        ts.emplace_back([&] {
            for (;;) {
                const std::uint32_t i =
                    claimed.fetch_add(1, std::memory_order_relaxed);
                if (i >= total)
                    return;
                const std::uint32_t start = i / per_round * per_round;
                while (published.load(std::memory_order_acquire) <=
                       std::max(i, start + surge - 1))
                    std::this_thread::yield();
                const ref_t ref = refs[i];
                if (ref.take()) {
                    taken.fetch_add(1, std::memory_order_relaxed);
                    // The reference is stale from here on.
                    if (ref.take())
                        stale_wins.fetch_add(1, std::memory_order_relaxed);
                } else {
                    failed.fetch_add(1, std::memory_order_relaxed);
                }
                // The previous round's reference was taken before the
                // shrink: its chunk may be released, revived or
                // recycled, and its take must fail in every case.
                if (i >= per_round && refs[i - per_round].take())
                    stale_wins.fetch_add(1, std::memory_order_relaxed);
                done.fetch_add(1, std::memory_order_release);
            }
        });
    }

    race_result out;
    // Owner-side history: the last version handed out per item.
    std::unordered_map<const item_t *, std::uint64_t> last;
    for (std::uint32_t r = 0; r < rounds; ++r) {
        const std::uint32_t start = r * per_round;
        for (std::uint32_t i = start; i < start + per_round; ++i) {
            while (i - start >= surge &&
                   i - done.load(std::memory_order_acquire) >= lead)
                std::this_thread::yield();
            const ref_t ref = pool.allocate(i, i);
            // A live item republished would carry an even version, or
            // one that does not exceed what the item held before.
            const auto it = last.find(ref.it);
            if ((ref.version & 1) == 0 ||
                (it != last.end() && ref.version <= it->second))
                ++out.bad_versions;
            if (it != last.end()) {
                ++out.reused;
                // The previous life's reference is stale: its take must
                // fail and leave the new life alone.
                if (ref.it->take(it->second))
                    ++out.stale_wins;
            }
            last[ref.it] = ref.version;
            refs[i] = ref;
            published.store(i + 1, std::memory_order_release);
        }
        // Pause: the takers have taken the whole round and wait for
        // the next publish, so no operation is in flight.
        while (done.load(std::memory_order_acquire) < start + per_round)
            std::this_thread::yield();
        out.released_chunks += pool.quiescent_shrink();
        // Every item of the round is dead, so a zero version marks a
        // released page.  A stale take there must fail.
        for (std::uint32_t i = start; i < start + per_round; ++i) {
            if (refs[i].it->version() != 0)
                continue;
            ++out.zeroed_refs;
            if (refs[i].take())
                ++out.stale_wins;
        }
    }
    for (auto &t : ts)
        t.join();
    out.taken = taken.load();
    out.failed_takes = failed.load();
    out.stale_wins += stale_wins.load();
    out.stats = pool.stats().snapshot();
    return out;
}

void expect_clean(const race_result &r, std::uint32_t total) {
    EXPECT_EQ(r.bad_versions, 0u) << "the sweep handed out a live item";
    EXPECT_EQ(r.failed_takes, 0u)
        << "a published reference lost its item before anyone took it";
    EXPECT_EQ(r.taken, total) << "every reference is taken exactly once";
    EXPECT_EQ(r.stale_wins, 0u) << "a stale reference took a reused item";
    EXPECT_GT(r.reused, total / 2) << "most allocations must recycle";
    EXPECT_GT(r.stats.reuse_hits, 0u);
}

TEST(SweepRecycling, ConcurrentTakersNeverSeeALiveItemReused) {
    constexpr std::uint32_t total = 20000;
    const race_result r =
        race(mm::reclaim_policy::none, 3, 1, total, 1, 64);
    expect_clean(r, total);
    EXPECT_EQ(r.stats.reuse_hits + r.stats.fresh_allocs, total);
    EXPECT_EQ(r.released_chunks, 0u);
}

TEST(SweepRecycling, ConcurrentTakersWithChunkShrink) {
    // The first surge fills chunks 0-3 and opens a fifth; afterwards at
    // most a few dozen items live, so at each pause every full chunk is
    // dead and the shrink releases it.  The next surge revives them
    // while takers still try the stale references into them.
    constexpr std::uint32_t rounds = 3;
    constexpr std::uint32_t per_round = 8000;
    const race_result r =
        race(mm::reclaim_policy::full, 3, rounds, per_round, 4096, 64);
    expect_clean(r, rounds * per_round);
    // A revived chunk's item counts as a reuse hit.
    EXPECT_EQ(r.stats.reuse_hits + r.stats.fresh_allocs, rounds * per_round);
    EXPECT_LE(r.stats.reclaimed_chunks, r.stats.chunks);
    if (mm::reclaim::release_pages_supported()) {
        EXPECT_GE(r.released_chunks, 4u)
            << "the first pause releases the four full chunks";
        EXPECT_EQ(r.stats.shrink_events, r.released_chunks);
        EXPECT_GT(r.stats.reactivated_chunks, 0u) << "no chunk was revived";
        EXPECT_GT(r.zeroed_refs, 0u) << "no stale reference saw a release";
    }
}

} // namespace
} // namespace klsm
