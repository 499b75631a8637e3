#include "mm/item_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <vector>

#include "util/rng.hpp"

// Every heap request of this test binary passes through here, so a test
// can count the bytes the pool asks for: counting is on only between
// heap_count_start() and heap_count_stop(), around pool calls.
namespace {
bool heap_counting = false;
std::size_t heap_counted = 0;

void heap_count_start() {
    heap_counted = 0;
    heap_counting = true;
}

std::size_t heap_count_stop() {
    heap_counting = false;
    return heap_counted;
}

void *counted_alloc(std::size_t n, std::size_t align) {
    if (heap_counting)
        heap_counted += n;
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *operator new(std::size_t n) { return counted_alloc(n, 0); }
void *operator new[](std::size_t n) { return counted_alloc(n, 0); }
void *operator new(std::size_t n, std::align_val_t a) {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void *operator new[](std::size_t n, std::align_val_t a) {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace klsm {
namespace {

using pool_t = item_pool<std::uint32_t, std::uint64_t>;
using item_t = item<std::uint32_t, std::uint64_t>;

TEST(ItemPool, AllocatePublishesPayload) {
    pool_t pool;
    auto ref = pool.allocate(42, 99);
    ASSERT_NE(ref.it, nullptr);
    EXPECT_EQ(ref.key, 42u);
    EXPECT_EQ(ref.it->key(), 42u);
    EXPECT_EQ(ref.it->value(), 99u);
    EXPECT_TRUE(ref.alive());
    EXPECT_EQ(ref.version & 1, 1u) << "alive versions are odd";
}

TEST(ItemPool, TakeMakesItemDeadAndRefusesDoubleTake) {
    pool_t pool;
    auto ref = pool.allocate(1, 2);
    EXPECT_TRUE(ref.take());
    EXPECT_FALSE(ref.alive());
    EXPECT_FALSE(ref.take()) << "double delete must fail";
}

TEST(ItemPool, ReusesTakenItems) {
    pool_t pool;
    // 64 concurrently live items force the pool to 64 distinct slots.
    std::vector<item_ref<std::uint32_t, std::uint64_t>> refs;
    for (std::uint32_t i = 0; i < 64; ++i)
        refs.push_back(pool.allocate(i, i));
    for (auto &ref : refs)
        ref.take();
    const std::size_t cap_before = pool.capacity();
    EXPECT_GE(cap_before, 64u);
    // All 64 are reusable; the next 64 allocations should not grow the
    // pool much (the sweep has a bounded budget, so allow slack).
    for (std::uint32_t i = 0; i < 64; ++i)
        pool.allocate(1000 + i, 0);
    EXPECT_LE(pool.capacity(), cap_before + 8);
}

TEST(ItemPool, ImmediateTakeReusesSingleSlot) {
    pool_t pool;
    for (std::uint32_t i = 0; i < 100; ++i) {
        auto ref = pool.allocate(i, i);
        ref.take();
    }
    EXPECT_LE(pool.capacity(), 2u)
        << "allocate-take cycles should recycle one slot";
}

TEST(ItemPool, StaleReferenceCannotTakeReusedItem) {
    pool_t pool;
    auto ref = pool.allocate(5, 5);
    auto stale = ref;
    ASSERT_TRUE(ref.take());
    // Force reuse of the same item.
    item<std::uint32_t, std::uint64_t> *recycled = nullptr;
    for (int i = 0; i < 10000 && recycled != stale.it; ++i) {
        auto r = pool.allocate(100, 100);
        recycled = r.it;
        if (recycled != stale.it)
            r.take();
    }
    ASSERT_EQ(recycled, stale.it) << "sweep should eventually recycle";
    EXPECT_FALSE(stale.alive());
    EXPECT_FALSE(stale.take()) << "ABA: stale version must not take";
}

TEST(ItemPool, VersionsStrictlyIncreasePerItem) {
    pool_t pool;
    auto ref = pool.allocate(1, 1);
    const std::uint64_t v1 = ref.version;
    ref.take();
    // Recycle the same physical item.
    item<std::uint32_t, std::uint64_t> *it = ref.it;
    std::uint64_t v2 = 0;
    for (int i = 0; i < 10000; ++i) {
        auto r = pool.allocate(2, 2);
        if (r.it == it) {
            v2 = r.version;
            break;
        }
        r.take();
    }
    ASSERT_NE(v2, 0u);
    EXPECT_GT(v2, v1);
}

TEST(ItemPool, GrowsWhenEverythingIsAlive) {
    pool_t pool;
    std::set<item<std::uint32_t, std::uint64_t> *> live;
    for (std::uint32_t i = 0; i < 1000; ++i) {
        auto ref = pool.allocate(i, i);
        EXPECT_TRUE(live.insert(ref.it).second)
            << "live item handed out twice";
    }
    EXPECT_GE(pool.capacity(), 1000u);
}

/// The reuse sweep as a flat array of the pool's items in allocation
/// order, one cursor and a budget of min(sweep_budget, n) probes.
struct sweep_model {
    std::vector<item_t *> items;
    std::size_t cursor = 0;

    /// The item the sweep hands out, or nullptr for a fresh allocation.
    /// `crossed` counts probes that step from a chunk's last item to
    /// the next chunk's first within one sweep.
    item_t *find(const std::vector<std::size_t> &chunk_starts,
                 std::size_t &crossed) {
        const std::size_t n = items.size();
        std::size_t budget = std::min(pool_t::sweep_budget, n);
        bool probed = false;
        while (budget-- > 0) {
            if (cursor >= n)
                cursor = 0;
            else if (probed && std::count(chunk_starts.begin(),
                                          chunk_starts.end(), cursor))
                ++crossed;
            probed = true;
            item_t *it = items[cursor++];
            if (it->reusable())
                return it;
        }
        return nullptr;
    }
};

TEST(ItemPool, SweepMatchesAllocationOrder) {
    pool_t pool;
    sweep_model model;
    // Arena chunks double from 256 items; chunk c starts at item
    // 256 * (2^c - 1).
    std::vector<std::size_t> chunk_starts;
    for (std::size_t c = 1; c < 16; ++c)
        chunk_starts.push_back(256 * ((std::size_t{1} << c) - 1));
    const auto chunk_start = [&](std::size_t i) {
        return std::count(chunk_starts.begin(), chunk_starts.end(), i) > 0;
    };
    xoroshiro128 rng{20260419};
    std::vector<item_ref<std::uint32_t, std::uint64_t>> live;
    std::size_t crossed = 0, parked = 0, reused = 0;
    // A burst of mostly fresh allocations (the cursor parks at the
    // growing end most often then), growth past four chunk boundaries,
    // a drain, and growth again.
    const struct {
        std::size_t steps;
        std::uint64_t alloc_per_mille;
    } phases[] = {{1500, 900}, {8000, 750}, {6000, 350}, {8000, 600}};
    std::uint32_t key = 0;
    for (const auto &ph : phases) {
        for (std::size_t s = 0; s < ph.steps; ++s) {
            if (live.empty() || rng.bounded(1000) < ph.alloc_per_mille) {
                const std::size_t n = model.items.size();
                item_t *expect = model.find(chunk_starts, crossed);
                // The cursor stops at the used end of a part-filled
                // last chunk (past the first), and this allocation
                // grows that chunk.
                if (expect == nullptr && n > chunk_starts[0] &&
                    model.cursor == n && !chunk_start(n))
                    ++parked;
                auto ref = pool.allocate(key, key);
                ++key;
                if (expect != nullptr) {
                    ASSERT_EQ(ref.it, expect)
                        << "allocation " << key << " left the model's order";
                    ++reused;
                } else {
                    ASSERT_EQ(std::count(model.items.begin(),
                                         model.items.end(), ref.it),
                              0)
                        << "allocation " << key
                        << " reused an item the model's sweep missed";
                    model.items.push_back(ref.it);
                }
                ASSERT_EQ(pool.capacity(), model.items.size());
                live.push_back(ref);
            } else {
                const std::size_t i = rng.bounded(live.size());
                ASSERT_TRUE(live[i].take());
                live[i] = live.back();
                live.pop_back();
            }
        }
    }
    EXPECT_GT(model.items.size(), chunk_starts[2])
        << "the trace must span at least four chunks";
    EXPECT_GT(crossed, 0u) << "no sweep crossed a chunk boundary";
    EXPECT_GT(parked, 0u)
        << "the cursor never parked at a part-filled chunk's end";
    EXPECT_GT(reused, 0u);
}

TEST(ItemPool, BookkeepingIsPerChunk) {
    constexpr std::size_t n = std::size_t{1} << 20;
    auto pool = std::make_unique<pool_t>();
    heap_count_start();
    for (std::size_t i = 0; i < n; ++i)
        pool->allocate(static_cast<std::uint32_t>(i), i);
    const std::size_t requested = heap_count_stop();
    ASSERT_EQ(pool->capacity(), n);
    // The chunks below mm::mapped_array_bytes are plain `new T[]`
    // arrays; the rest are mappings, which the heap never sees.
    // Chunks double from 256 items.
    std::size_t heap_chunks = 0;
    for (std::size_t items = 0, c = 256; items < n; items += c, c *= 2)
        if (c * sizeof(item_t) < mm::mapped_array_bytes)
            heap_chunks += c * sizeof(item_t);
    ASSERT_GE(requested, heap_chunks);
    EXPECT_LT(requested - heap_chunks, std::size_t{64} << 10)
        << "per-item bookkeeping on the heap: " << requested - heap_chunks
        << " bytes beyond the chunks for " << n << " items";
}

} // namespace
} // namespace klsm
