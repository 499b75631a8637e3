#include "klsm/shared_lsm.hpp"

#include "mm/item_pool.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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
