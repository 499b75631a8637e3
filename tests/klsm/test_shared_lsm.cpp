#include "klsm/shared_lsm.hpp"

#include "adapt/contention_monitor.hpp"
#include "mm/item_pool.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

namespace klsm {
namespace {

using shared_t = shared_lsm<std::uint32_t, std::uint64_t>;
using block_t = block<std::uint32_t, std::uint64_t>;
using pool_t = item_pool<std::uint32_t, std::uint64_t>;
using array_t = block_array<std::uint32_t, std::uint64_t>;
using ref_t = item_ref<std::uint32_t, std::uint64_t>;

/// Item pools of owner slots first .. first+n-1; key k belongs to owner
/// first + k % n, so owners interleave in key order.
struct dealt_owners {
    dealt_owners(std::uint32_t first, std::uint32_t n) : first(first) {
        for (std::uint32_t i = 0; i < n; ++i)
            pools.push_back(
                std::make_unique<pool_t>(mm::mem_placement{}, first + i));
    }
    std::uint32_t owner_of_key(std::uint32_t key) const {
        return first + key % static_cast<std::uint32_t>(pools.size());
    }
    std::uint32_t first;
    std::vector<std::unique_ptr<pool_t>> pools;
};

/// The pool a key's item comes from.
pool_t &pool_for(pool_t &pool, std::uint32_t) { return pool; }
pool_t &pool_for(dealt_owners &owners, std::uint32_t key) {
    return *owners.pools[key % owners.pools.size()];
}

/// Build a standalone sealed source block (as a DistLSM spill would).
struct source_block {
    template <typename Items>
    source_block(Items &items, std::vector<std::uint32_t> keys)
        : blk(block_t::level_for(static_cast<std::uint32_t>(keys.size()))) {
        std::sort(keys.rbegin(), keys.rend());
        blk.reuse_begin(blk.capacity_pow());
        for (auto k : keys)
            blk.append(pool_for(items, k).allocate(k, k));
        blk.seal();
    }
    block_t blk;
};

/// Every entry of `blocks`, indexed by key (keys are 0..n-1).
std::vector<ref_t>
refs_by_key(const std::vector<std::unique_ptr<source_block>> &blocks,
            std::size_t n) {
    std::vector<ref_t> refs(n);
    for (const auto &b : blocks)
        for (std::uint32_t i = 0; i < b->blk.filled(); ++i) {
            const ref_t ref = b->blk.load_entry(i);
            refs[ref.key] = ref;
        }
    return refs;
}

/// Take one item through the relaxed find_min/take loop and return its
/// rank among the keys not yet deleted.
std::size_t take_one(shared_t &s, std::vector<bool> &deleted) {
    ref_t ref;
    do {
        ref = s.find_min(0);
        if (ref.empty()) {
            ADD_FAILURE() << "shared LSM drained early";
            return deleted.size();
        }
    } while (!ref.take());
    EXPECT_LT(ref.key, deleted.size());
    EXPECT_FALSE(deleted[ref.key]) << "key " << ref.key << " taken twice";
    std::size_t rank = 0;
    for (std::uint32_t j = 0; j < ref.key; ++j)
        rank += deleted[j] ? 0 : 1;
    deleted[ref.key] = true;
    return rank;
}

/// Keys 0..sum(sizes)-1 dealt round-robin over one source block per size
/// (every block holds some of the smallest keys), so with distinct
/// levels the shared LSM keeps one slot per block.
template <typename Items>
std::vector<std::unique_ptr<source_block>>
dealt_blocks(Items &items, const std::vector<std::uint32_t> &sizes) {
    std::vector<std::vector<std::uint32_t>> keys(sizes.size());
    const std::uint32_t rounds = *std::max_element(sizes.begin(), sizes.end());
    std::uint32_t next = 0;
    for (std::uint32_t round = 0; round < rounds; ++round)
        for (std::size_t b = 0; b < sizes.size(); ++b)
            if (round < sizes[b])
                keys[b].push_back(next++);
    std::vector<std::unique_ptr<source_block>> blocks;
    for (auto &k : keys)
        blocks.push_back(std::make_unique<source_block>(items, k));
    return blocks;
}

TEST(SharedLsm, EmptyFindMin) {
    shared_t s{4};
    EXPECT_TRUE(s.find_min(0).empty());
    EXPECT_EQ(s.item_count_estimate(), 0u);
}

TEST(SharedLsm, InsertThenFindSingleBlock) {
    pool_t items;
    shared_t s{4};
    source_block src{items, {30, 10, 20}};
    s.insert(&src.blk, src.blk.filled());
    EXPECT_EQ(s.item_count_estimate(), 3u);
    auto ref = s.find_min(0);
    ASSERT_FALSE(ref.empty());
    // k = 4: any of the 3 keys is a legal candidate.
    EXPECT_TRUE(ref.key == 10 || ref.key == 20 || ref.key == 30);
}

TEST(SharedLsm, KZeroAlwaysReturnsExactMin) {
    pool_t items;
    shared_t s{0};
    source_block a{items, {50, 40}};
    source_block b{items, {35, 45}};
    s.insert(&a.blk, a.blk.filled());
    s.insert(&b.blk, b.blk.filled());
    for (int i = 0; i < 20; ++i) {
        auto ref = s.find_min(0);
        ASSERT_FALSE(ref.empty());
        EXPECT_EQ(ref.key, 35u) << "k=0 must always surface the minimum";
    }
}

TEST(SharedLsm, CandidatesStayWithinKPlus1Smallest) {
    pool_t items;
    constexpr std::size_t k = 3;
    shared_t s{k};
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 40; ++i)
        keys.push_back(i);
    source_block src{items, keys};
    s.insert(&src.blk, src.blk.filled());
    for (int i = 0; i < 200; ++i) {
        auto ref = s.find_min(0);
        ASSERT_FALSE(ref.empty());
        EXPECT_LE(ref.key, k) << "candidate outside the k+1 smallest";
    }
}

TEST(SharedLsm, RandomSelectionSpreadsOverCandidates) {
    pool_t items{{}, 55};
    shared_t s{7};
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 64; ++i)
        keys.push_back(i);
    source_block src{items, keys};
    s.insert(&src.blk, src.blk.filled());
    std::map<std::uint32_t, int> histogram;
    for (int i = 0; i < 500; ++i)
        ++histogram[s.find_min(0).key]; // tid 0 has no own items
    EXPECT_GE(histogram.size(), 3u)
        << "relaxed selection should hit several of the 8 candidates";
}

TEST(SharedLsm, DeleteDrainsInRelaxedOrder) {
    pool_t items;
    constexpr std::size_t k = 2;
    shared_t s{k};
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 30; ++i)
        keys.push_back(i);
    source_block src{items, keys};
    s.insert(&src.blk, src.blk.filled());

    std::vector<bool> deleted(30, false);
    for (int step = 0; step < 30; ++step)
        ASSERT_LE(take_one(s, deleted), k) << "step " << step;
    EXPECT_TRUE(s.find_min(0).empty()) << "drained shared LSM is empty";
    EXPECT_EQ(s.item_count_estimate(), 0u);
}

TEST(SharedLsm, MultiBlockDeleteDrainsInRelaxedOrder) {
    pool_t items{{}, 5};
    constexpr std::size_t k = 4;
    shared_t s{k};
    // Blocks of levels 6, 5, 4, 3 of another thread's items (owner 5), so
    // the own-minimum rule of tid 0 never masks the random pick.
    auto blocks = dealt_blocks(items, {64, 32, 16, 8});
    for (auto &b : blocks)
        s.insert(&b->blk, b->blk.filled());
    const std::size_t n = 64 + 32 + 16 + 8;
    EXPECT_EQ(s.item_count_estimate(), n);

    std::vector<bool> deleted(n, false);
    std::set<std::size_t> ranks;
    for (std::size_t step = 0; step < n; ++step) {
        const std::size_t rank = take_one(s, deleted);
        ASSERT_LE(rank, k) << "step " << step;
        ranks.insert(rank);
    }
    // Candidates are replenished after every trim, so the picks keep
    // spreading over the k+1 smallest instead of collapsing onto one.
    EXPECT_GE(ranks.size(), 4u);
    EXPECT_TRUE(s.find_min(0).empty()) << "drained shared LSM is empty";
    EXPECT_EQ(s.item_count_estimate(), 0u);
}

TEST(SharedLsm, LoweredKTakesEffectAtNextConsolidation) {
    pool_t items{{}, 5};
    shared_t s{64};
    // Levels 7, 6, 5, 4; keys 0..239, all owner 5's.  The last block
    // holds 3, 7, ..., 63 and the block minima are 0..3.
    auto blocks = dealt_blocks(items, {128, 64, 32, 16});
    for (auto &b : blocks)
        s.insert(&b->blk, b->blk.filled());
    const std::size_t n = 128 + 64 + 32 + 16;
    std::vector<bool> deleted(n, false);

    // The published pivots span the 65 smallest keys, 0..64.  Delete all
    // of them but 40, 41 and 42 behind the queue's back.  A pick is then
    // either one of those three or dead with a dead block minimum, which
    // forces a consolidation.  It only trims (the last block empties,
    // the levels stay distinct), and 19 candidates survive it: 40, 41,
    // 42 and the dead keys above them in their blocks, more than k+1 = 3.
    s.set_relaxation(2);
    for (auto &b : blocks) {
        for (std::uint32_t i = 0; i < b->blk.filled(); ++i) {
            ref_t ref = b->blk.load_entry(i);
            if (ref.key <= 64 && (ref.key < 40 || ref.key > 42)) {
                ASSERT_TRUE(ref.take());
                deleted[ref.key] = true;
            }
        }
    }
    const std::size_t live = n - 62;
    // From that consolidation on, the candidates must be the 3 smallest
    // of the trimmed array.
    for (std::size_t step = 0; step < live; ++step)
        ASSERT_LE(take_one(s, deleted), 2u) << "step " << step;
    EXPECT_TRUE(s.find_min(0).empty());
}

TEST(SharedLsm, MultipleInsertsMergeLevels) {
    pool_t items;
    shared_t s{1};
    std::vector<std::unique_ptr<source_block>> sources;
    for (std::uint32_t i = 0; i < 20; ++i) {
        sources.push_back(
            std::make_unique<source_block>(items,
                                           std::vector<std::uint32_t>{i}));
        s.insert(&sources.back()->blk, 1);
    }
    EXPECT_EQ(s.item_count_estimate(), 20u);
    item_ref<std::uint32_t, std::uint64_t> ref;
    do {
        ref = s.find_min(0);
        ASSERT_FALSE(ref.empty());
    } while (!ref.take());
    EXPECT_LE(ref.key, 1u);
}

TEST(SharedLsm, LocalOrderingPrefersOwnMinimum) {
    pool_t items{{}, 7};
    // Large k so the random candidate is usually NOT the global minimum.
    shared_t s{63};
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 64; ++i)
        keys.push_back(i);
    source_block src{items, keys};
    s.insert(&src.blk, src.blk.filled());
    // Thread 7 owns every key, so its own minimum (0) must always win the
    // comparison against the random candidate.
    for (int i = 0; i < 50; ++i) {
        auto ref = s.find_min(/*tid=*/7);
        ASSERT_FALSE(ref.empty());
        EXPECT_EQ(ref.key, 0u);
    }
}

TEST(SharedLsm, OwnMinimumIgnoresOtherOwnersEntries) {
    // Keys 0..255 dealt round-robin to owners 1..4: owner 2 holds
    // 1, 5, 9, ...  Its own minimum is 1, not the block minimum 0, so
    // find_min(2) serves 1 against every random pick but 0.
    dealt_owners owners{1, 4};
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 256; ++i)
        keys.push_back(i);
    source_block src{owners, keys};
    shared_t s{63};
    s.insert(&src.blk, src.blk.filled());
    int ones = 0;
    for (int i = 0; i < 200; ++i) {
        const ref_t ref = s.find_min(/*tid=*/2);
        ASSERT_FALSE(ref.empty());
        ASSERT_LE(ref.key, 1u) << "own minimum 1 must beat the pick";
        ones += ref.key == 1;
    }
    // P(no pick above 0 in 200 draws) = 64^-200.
    EXPECT_GT(ones, 0) << "the own minimum is another owner's key";
}

TEST(SharedLsm, OwnCursorNeverSkipsALiveOwnEntry) {
    // Four blocks, owners 1..4 interleaved in key order.  Between
    // find_min(2) calls, other owners' entries and some of owner 2's own
    // die behind the queue's back, and the returned own entry is left
    // alive half the time.  find_min must never serve a key above the
    // smallest alive own key: the own-scan cursors may skip dead and
    // foreign entries, but never a live own one.
    constexpr std::uint32_t me = 2;
    dealt_owners owners{1, 4};
    auto blocks = dealt_blocks(owners, {512, 256, 128, 64});
    const std::size_t n = 512 + 256 + 128 + 64;
    shared_t s{255};
    for (auto &b : blocks)
        s.insert(&b->blk, b->blk.filled());
    const std::vector<ref_t> refs = refs_by_key(blocks, n);
    xoroshiro128 rng{77};
    const auto own_min = [&] {
        for (std::uint32_t k = 0; k < n; ++k)
            if (owners.owner_of_key(k) == me && refs[k].alive())
                return k;
        return static_cast<std::uint32_t>(n);
    };
    std::size_t served = 0;
    for (std::size_t step = 0; step < 20 * n; ++step) {
        const std::uint32_t m = own_min();
        const ref_t ref = s.find_min(me);
        if (ref.empty())
            break;
        ++served;
        ASSERT_LE(ref.key, m) << "step " << step;
        if (rng.bounded(2) == 0)
            ref.take();
        for (int j = 0; j < 3; ++j) {
            const auto k = static_cast<std::uint32_t>(rng.bounded(n));
            if (owners.owner_of_key(k) != me || rng.bounded(4) == 0)
                refs[k].take();
        }
    }
    EXPECT_GT(served, n / 4);
    EXPECT_TRUE(s.find_min(me).empty()) << "everything was taken";
}

TEST(SharedLsm, TwoArraysPerThreadSuffice) {
    pool_t items;
    shared_t s{2};
    std::vector<std::unique_ptr<source_block>> sources;
    for (std::uint32_t i = 0; i < 200; ++i) {
        sources.push_back(std::make_unique<source_block>(
            items, std::vector<std::uint32_t>{i, i + 1000}));
        s.insert(&sources.back()->blk, 2);
        if (i % 3 == 0) {
            auto ref = s.find_min(0);
            if (!ref.empty())
                ref.take();
        }
    }
    EXPECT_EQ(s.extra_array_allocations(), 0u)
        << "paper bound of two BlockArrays per thread violated";
}

TEST(SharedLsm, ConcurrentInsertDeleteConservation) {
    constexpr int threads = 4;
    constexpr std::uint32_t per_thread = 3000;
    shared_t s{16};
    std::atomic<std::uint64_t> deletes{0};
    // Pools and source blocks must outlive every thread: items stay
    // referenced by the shared LSM until the final drain.  Each thread's
    // items are owned by its slot, as a k-LSM's DistLSM pool would own them.
    std::unique_ptr<pool_t> items_by_thread[threads];
    std::vector<std::unique_ptr<source_block>> sources_by_thread[threads];
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            const std::uint32_t tid = thread_index();
            items_by_thread[t] =
                std::make_unique<pool_t>(mm::mem_placement{}, tid);
            pool_t &items = *items_by_thread[t];
            auto &sources = sources_by_thread[t];
            for (std::uint32_t i = 0; i < per_thread; ++i) {
                sources.push_back(std::make_unique<source_block>(
                    items,
                    std::vector<std::uint32_t>{
                        static_cast<std::uint32_t>(t) * per_thread + i}));
                s.insert(&sources.back()->blk, 1);
                auto ref = s.find_min(tid);
                if (!ref.empty() && ref.take())
                    deletes.fetch_add(1);
            }
            // Drain whatever is left visible to this thread.
            for (;;) {
                auto ref = s.find_min(tid);
                if (ref.empty())
                    break;
                if (ref.take())
                    deletes.fetch_add(1);
            }
        });
    }
    for (auto &t : ts)
        t.join();
    // Every inserted item is deleted exactly once; nothing is lost or
    // duplicated.
    EXPECT_EQ(deletes.load(), std::uint64_t{threads} * per_thread);
    EXPECT_TRUE(s.find_min(thread_index()).empty());
}

// ---- settling big merges off the publish path ----------------------------

/// Refill `src` with `keys` (any order) and publish it into `s`.
void spill(shared_t &s, block_t &src, pool_t &items,
           std::vector<std::uint32_t> keys) {
    std::sort(keys.rbegin(), keys.rend());
    src.reuse_begin(src.capacity_pow());
    for (auto k : keys)
        src.append(items.allocate(k, k));
    src.seal();
    s.insert(&src, src.filled());
}

TEST(SharedLsm, LoneInserterSettlesEveryTie) {
    // k = 3 makes every merge above 64 entries big.  A lone inserter
    // wins every settle claim, so each insert returns only once no big
    // violation is left: levels decrease strictly after every insert.
    constexpr std::uint32_t blocks = 4096;
    constexpr std::uint32_t max_spill = 32;
    xoroshiro128 rng{31};
    std::vector<std::uint32_t> sizes(blocks);
    std::uint32_t n = 0;
    for (auto &size : sizes)
        n += size = 1 + static_cast<std::uint32_t>(rng.bounded(max_spill));
    std::vector<std::uint32_t> keys(n);
    for (std::uint32_t i = 0; i < n; ++i)
        keys[i] = i;
    for (std::uint32_t i = n; i > 1; --i)
        std::swap(keys[i - 1], keys[rng.bounded(i)]);

    pool_t items;
    shared_t s{3};
    adapt::contention_monitor mon;
    s.set_monitor(&mon);
    block_t src{block_t::level_for(max_spill)};
    std::uint32_t inserted = 0;
    for (std::uint32_t b = 0; b < blocks; ++b) {
        spill(s, src, items,
              {keys.begin() + inserted,
               keys.begin() + inserted + sizes[b]});
        inserted += sizes[b];
        const std::vector<std::uint32_t> levels = s.slot_levels();
        ASSERT_LE(levels.size(), shared_t::max_blocks) << "block " << b;
        for (std::size_t i = 1; i < levels.size(); ++i)
            ASSERT_GT(levels[i - 1], levels[i])
                << "block " << b << ", slot " << i;
        // Nothing is deleted yet, so every entry is one distinct item.
        ASSERT_EQ(s.item_count_estimate(), inserted) << "block " << b;
    }
    EXPECT_GT(mon.totals().settles, 0u);
    EXPECT_EQ(mon.totals().settle_discards, 0u) << "nobody else publishes";

    std::vector<bool> seen(n, false);
    for (;;) {
        const ref_t ref = s.find_min(0);
        if (ref.empty())
            break;
        if (!ref.take())
            continue;
        ASSERT_LT(ref.key, n);
        ASSERT_FALSE(seen[ref.key]) << "key " << ref.key << " twice";
        seen[ref.key] = true;
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
              static_cast<std::ptrdiff_t>(n));
}

/// Thread A's settle merge pauses (inside its lazy policy) while thread
/// B empties and unpublishes the block B owns in A's big pair.  With
/// `recycle`, B then recycles that very block for a larger spill, so it
/// is back in the array at the same address, but in a new life.  Either
/// way A must discard its merge: substituting it would drop the slot of
/// B's last spill, or B's new keys past A's stale fill view.  k = 3:
/// merges above 64 entries are big.
void settle_loses_an_input(bool recycle) {
    shared_t s{3};
    adapt::contention_monitor mon;
    s.set_monitor(&mon);
    std::atomic<int> phase{0};
    const auto wait_for = [&](int p) {
        while (phase.load() != p)
            std::this_thread::yield();
    };
    const auto keys = [](std::uint32_t first, std::uint32_t n) {
        std::vector<std::uint32_t> k(n);
        for (std::uint32_t i = 0; i < n; ++i)
            k[i] = first + i;
        return k;
    };
    std::unique_ptr<pool_t> items_b;
    std::thread b([&] {
        const std::uint32_t tid = thread_index();
        items_b = std::make_unique<pool_t>(mm::mem_placement{}, tid);
        block_t x{6};
        spill(s, x, *items_b, keys(0, 33)); // level 6, the smallest keys
        phase.store(1);
        wait_for(2);
        for (std::uint32_t i = 0; i < x.filled(); ++i)
            ASSERT_TRUE(x.load_entry(i).take());
        // The k+1 smallest are now dead: find_min trims X's block out of
        // B's snapshot, and the next spill publishes that snapshot.
        ASSERT_FALSE(s.find_min(tid).empty());
        block_t z{6};
        spill(s, z, *items_b, keys(200, 5));
        if (recycle)
            spill(s, z, *items_b, keys(100, 64)); // recycles X's block
        phase.store(3);
    });
    wait_for(1);

    pool_t items_a{{}, thread_index()};
    block_t y{6};
    std::uint32_t lazy_calls = 0;
    // 33 calls copy Y; the 34th is the settle merge's first append.
    const auto pause_settle = [&](const std::uint32_t &,
                                  const item<std::uint32_t, std::uint64_t> *) {
        if (++lazy_calls == 34) {
            phase.store(2);
            wait_for(3);
        }
        return false;
    };
    y.reuse_begin(6);
    for (auto k : keys(33, 33))
        y.append(items_a.allocate(k, k));
    y.seal();
    s.insert(&y, y.filled(), pause_settle);
    b.join();
    EXPECT_GE(lazy_calls, 34u) << "no settle merge ran";
    EXPECT_EQ(mon.totals().settle_discards, 1u);

    std::set<std::uint32_t> expect;
    for (auto ks : {keys(33, 33), keys(200, 5)})
        expect.insert(ks.begin(), ks.end());
    if (recycle)
        for (auto k : keys(100, 64))
            expect.insert(k);
    std::set<std::uint32_t> got;
    for (;;) {
        const ref_t ref = s.find_min(thread_index());
        if (ref.empty())
            break;
        if (ref.take()) {
            ASSERT_TRUE(got.insert(ref.key).second) << "key " << ref.key;
        }
    }
    EXPECT_EQ(got, expect);
}

TEST(SharedLsm, SettleDiscardsAVanishedInput) { settle_loses_an_input(false); }

TEST(SharedLsm, SettleDiscardsARecycledInput) { settle_loses_an_input(true); }

TEST(SharedLsm, SettledBlocksRecycleAcrossSettlers) {
    // Two threads in turn fill the shared LSM with the same spills and
    // drain it.  The second thread's settles find the first one's
    // settled blocks unreferenced and reuse them, so it allocates only
    // its own small publish-path blocks: fewer than the first thread.
    shared_t s{3};
    adapt::contention_monitor mon;
    s.set_monitor(&mon);
    const auto fill_and_drain = [&s] {
        pool_t items{{}, thread_index()};
        block_t src{block_t::level_for(32)};
        xoroshiro128 rng{47};
        std::uint32_t next = 0;
        for (int b = 0; b < 512; ++b) {
            std::vector<std::uint32_t> keys(
                1 + static_cast<std::uint32_t>(rng.bounded(32)));
            for (auto &k : keys)
                k = next++;
            spill(s, src, items, keys);
        }
        std::uint32_t taken = 0;
        for (;;) {
            const ref_t ref = s.find_min(thread_index());
            if (ref.empty())
                break;
            taken += ref.take() ? 1 : 0;
        }
        EXPECT_EQ(taken, next);
    };
    const auto chunks = [&s] {
        mm::memory_stats m;
        s.collect_memory(m, false);
        return m.shared_blocks.chunks;
    };
    thread_index(); // the worker below gets another thread slot
    std::thread first(fill_and_drain);
    first.join();
    const std::uint64_t after_first = chunks();
    fill_and_drain();
    EXPECT_GT(mon.totals().settles, 0u);
    EXPECT_LT(chunks() - after_first, after_first);
}

TEST(SharedLsm, TightArrayMergesSmallestTieFirst) {
    // Thread A's settle of a big level-8 pair pauses while thread B
    // spills level-6 blocks of 40 keys, each a big tie at k = 3 (merges
    // above 64 entries are big), until the array nears max_blocks.  The
    // slot bound must hold through B's own small merges: the huge pair
    // A is settling stays in place, and A's substitution then succeeds.
    shared_t s{3};
    adapt::contention_monitor mon;
    s.set_monitor(&mon);
    std::atomic<int> phase{0};
    const auto wait_for = [&](int p) {
        while (phase.load() != p)
            std::this_thread::yield();
    };
    const auto keys = [](std::uint32_t first, std::uint32_t n) {
        std::vector<std::uint32_t> k(n);
        for (std::uint32_t i = 0; i < n; ++i)
            k[i] = first + i;
        return k;
    };
    constexpr std::uint32_t big_keys = 200, spills = 40, spill_keys = 40;
    std::unique_ptr<pool_t> items_b;
    std::thread b([&] {
        items_b = std::make_unique<pool_t>(mm::mem_placement{},
                                           thread_index());
        block_t x{8};
        spill(s, x, *items_b, keys(0, big_keys));
        phase.store(1);
        wait_for(2);
        block_t src{6};
        for (std::uint32_t i = 0; i < spills; ++i) {
            spill(s, src, *items_b,
                  keys(2 * big_keys + i * spill_keys, spill_keys));
            const std::vector<std::uint32_t> levels = s.slot_levels();
            ASSERT_LE(levels.size() + 4, shared_t::max_blocks)
                << "spill " << i;
            ASSERT_GE(levels.size(), 2u);
            EXPECT_EQ(levels[0], 8u) << "spill " << i;
            EXPECT_EQ(levels[1], 8u) << "spill " << i;
        }
        phase.store(3);
    });
    wait_for(1);

    pool_t items_a{{}, thread_index()};
    block_t y{8};
    std::uint32_t lazy_calls = 0;
    // big_keys calls copy Y; the next is the settle merge's first append.
    const auto pause_settle = [&](const std::uint32_t &,
                                  const item<std::uint32_t, std::uint64_t> *) {
        if (++lazy_calls == big_keys + 1) {
            phase.store(2);
            wait_for(3);
        }
        return false;
    };
    y.reuse_begin(8);
    for (auto k : keys(big_keys, big_keys))
        y.append(items_a.allocate(k, k));
    y.seal();
    s.insert(&y, y.filled(), pause_settle);
    b.join();
    EXPECT_GT(lazy_calls, big_keys) << "no settle merge ran";
    EXPECT_EQ(mon.totals().settle_discards, 0u);
    EXPECT_GE(mon.totals().settles, 1u);

    const std::uint32_t n = 2 * big_keys + spills * spill_keys;
    std::set<std::uint32_t> got;
    for (;;) {
        const ref_t ref = s.find_min(thread_index());
        if (ref.empty())
            break;
        if (ref.take()) {
            ASSERT_TRUE(got.insert(ref.key).second) << "key " << ref.key;
        }
    }
    EXPECT_EQ(got.size(), n);
    EXPECT_EQ(*got.rbegin(), n - 1);
}

TEST(SharedLsm, ConcurrentSpillsSettleWithoutLoss) {
    // Four threads spill blocks of up to 64 keys (merges above 128
    // entries are big at k = 7) and take about half as many keys back
    // after each spill, so big pairs are settled while other threads
    // publish, trim and empty the blocks under them.  Every key must
    // come out exactly once.
    constexpr std::uint32_t threads = 4;
    constexpr std::uint32_t spills = 1500;
    constexpr std::uint32_t max_spill = 64;
    constexpr std::uint32_t stride = spills * max_spill;
    shared_t s{7};
    adapt::contention_monitor mon;
    s.set_monitor(&mon);
    std::vector<std::atomic<std::uint8_t>> taken(threads * stride);
    std::atomic<std::uint32_t> inserted{0};
    std::unique_ptr<pool_t> items_by_thread[threads];
    const auto take = [&](std::uint32_t tid) {
        for (;;) {
            const ref_t ref = s.find_min(tid);
            if (ref.empty())
                return false;
            if (ref.take()) {
                taken[ref.key].fetch_add(1);
                return true;
            }
        }
    };
    std::vector<std::thread> ts;
    for (std::uint32_t t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            const std::uint32_t tid = thread_index();
            items_by_thread[t] =
                std::make_unique<pool_t>(mm::mem_placement{}, tid);
            block_t src{block_t::level_for(max_spill)};
            xoroshiro128 rng{100 + t};
            std::uint32_t next = t * stride;
            for (std::uint32_t i = 0; i < spills; ++i) {
                const auto size =
                    1 + static_cast<std::uint32_t>(rng.bounded(max_spill));
                std::vector<std::uint32_t> keys(size);
                for (auto &k : keys)
                    k = next++;
                spill(s, src, *items_by_thread[t], keys);
                inserted.fetch_add(size);
                for (std::uint64_t d = rng.bounded(size + 1); d > 0; --d)
                    if (!take(tid))
                        break;
            }
        });
    }
    for (auto &t : ts)
        t.join();
    while (take(thread_index())) {
    }
    std::uint32_t once = 0;
    for (std::size_t k = 0; k < taken.size(); ++k) {
        ASSERT_LE(taken[k].load(), 1u) << "key " << k << " taken twice";
        once += taken[k].load();
    }
    EXPECT_EQ(once, inserted.load()) << "keys lost";
    EXPECT_GT(mon.totals().settles, 0u);
    EXPECT_TRUE(s.slot_levels().empty());
}

// ---- pivot walk (block_array::calculate_pivots / extend_pivots) ---------

/// Sorted multiset of the keys in the candidate ranges [pivot, filled).
std::vector<std::uint32_t> candidate_keys(const array_t &a) {
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < a.count(); ++i) {
        const auto *b = a.slots[i].blk.load();
        const std::uint32_t f = a.slots[i].filled.load();
        for (std::uint32_t j = a.slots[i].pivot.load(); j < f; ++j)
            keys.push_back(b->load_entry(j).key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

TEST(PivotWalk, ExtendAfterTrimMatchesFullWalk) {
    pool_t items;
    xoroshiro128 rng{2024};
    for (int round = 0; round < 300; ++round) {
        // 4..8 slots of strictly decreasing levels; keys drawn from a
        // small range so duplicates within and across blocks are common.
        const std::uint32_t n_slots = 4 + rng.bounded(5);
        const std::uint32_t key_range = 1 + rng.bounded(64);
        std::vector<std::unique_ptr<block_t>> blocks;
        auto a = std::make_unique<array_t>();
        auto b = std::make_unique<array_t>();
        a->begin_mutate();
        b->begin_mutate();
        for (std::uint32_t i = 0; i < n_slots; ++i) {
            const std::uint32_t level = n_slots + 1 - i;
            const auto size = static_cast<std::uint32_t>(
                (std::uint32_t{1} << (level - 1)) + 1 +
                rng.bounded(std::uint64_t{1} << (level - 1)));
            std::vector<std::uint32_t> keys(size);
            for (auto &key : keys)
                key = static_cast<std::uint32_t>(rng.bounded(key_range));
            std::sort(keys.rbegin(), keys.rend());
            blocks.push_back(std::make_unique<block_t>(level));
            block_t &blk = *blocks.back();
            blk.reuse_begin(level);
            for (auto key : keys)
                blk.append(items.allocate(key, key));
            blk.seal();
            a->insert_slot(i, &blk, size, level);
            b->insert_slot(i, &blk, size, level);
        }
        const std::size_t k = rng.bounded(200);
        a->calculate_pivots(k);

        // Trim a random dead suffix off some slots, emptying a few.
        for (std::uint32_t i = 0; i < n_slots; ++i) {
            const std::uint32_t f = a->slots[i].filled.load();
            const std::uint32_t candidates = f - a->slots[i].pivot.load();
            std::uint32_t trimmed = f; // case 0: untouched
            switch (rng.bounded(4)) {
            case 1: // within the candidate range
                trimmed -= static_cast<std::uint32_t>(
                    rng.bounded(candidates + 1));
                break;
            case 2: // anywhere, possibly past the pivot
                trimmed = static_cast<std::uint32_t>(rng.bounded(f + 1));
                break;
            case 3: // the whole slot
                trimmed = 0;
                break;
            }
            a->slots[i].filled.store(trimmed);
            b->slots[i].filled.store(trimmed);
        }

        // Unchanged, raised or lowered k: the extension must agree with
        // a full walk over the trimmed array.
        std::size_t k2 = k;
        if (rng.bounded(3) == 1)
            k2 = k + rng.bounded(100);
        else if (rng.bounded(2) == 1)
            k2 = rng.bounded(k + 1);
        a->extend_pivots(k2);
        b->calculate_pivots(k2);
        const auto ext = candidate_keys(*a);
        const auto full = candidate_keys(*b);
        ASSERT_EQ(ext.size(), full.size()) << "round " << round;
        ASSERT_EQ(ext, full) << "round " << round;
        a->seal();
        b->seal();
    }
}

} // namespace
} // namespace klsm
