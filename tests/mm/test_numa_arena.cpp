// Pool storage (mm/placement.hpp, mm/arena.hpp, mm/alloc_stats.hpp):
// placed_array with shrinking off (one plain heap array) and on
// (page-aligned storage the shrink tier can release), large arrays as
// mapped zero pages committed on first write, the all-zero default
// state of every pooled type that relies on, move semantics, arena
// chunk accounting, and the `memory` JSON schema.

#include "mm/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <set>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "klsm/block_pool.hpp"
#include "klsm/item.hpp"
#include "mm/alloc_stats.hpp"
#include "mm/placement.hpp"

namespace klsm {
namespace {

mm::mem_placement shrinking() {
    mm::mem_placement place;
    place.reclaim.policy = mm::reclaim_policy::full;
    return place;
}

std::size_t page_rounded(std::size_t bytes) {
    const std::size_t ps = mm::page_size();
    return (bytes + ps - 1) / ps * ps;
}

#if defined(__linux__)
/// One flag per page of [p, p + bytes): is it resident?  The region
/// must be page-aligned.
std::vector<bool> resident_pages(const void *p, std::size_t bytes) {
    const std::size_t ps = mm::page_size();
    std::vector<unsigned char> vec((bytes + ps - 1) / ps);
    EXPECT_EQ(::mincore(const_cast<void *>(p), bytes, vec.data()), 0);
    std::vector<bool> out;
    for (const unsigned char v : vec)
        out.push_back((v & 1) != 0);
    return out;
}

std::size_t count_resident(const void *p, std::size_t bytes) {
    std::size_t n = 0;
    for (const bool r : resident_pages(p, bytes))
        n += r;
    return n;
}
#endif

TEST(PlacedArray, ShrinkOffIsPlainAllocation) {
    mm::mem_placement place;
    place.reclaim.policy = mm::reclaim_policy::none;
    auto a = mm::placed_array<int>::allocate(100, place);
    ASSERT_NE(a.get(), nullptr);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_EQ(a.bytes(), 100 * sizeof(int)) << "no page rounding";
    EXPECT_FALSE(a.page_managed());
    EXPECT_EQ(a.region(), a.get());
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(a[i], 0) << "value-initialized like make_unique<T[]>";
}

TEST(PlacedArray, ShrinkOnIsPageAligned) {
    auto a = mm::placed_array<int>::allocate(100, shrinking());
    ASSERT_NE(a.get(), nullptr);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_TRUE(a.page_managed());
    EXPECT_EQ(a.bytes(), page_rounded(100 * sizeof(int)));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.region()) %
                  mm::page_size(),
              0u);
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_EQ(a[i], 0);
        a[i] = static_cast<int>(i);
    }
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(a[i], static_cast<int>(i));
}

TEST(PlacedArray, EmptyAllocationOwnsNothing) {
    for (const auto &place : {mm::mem_placement{}, shrinking()}) {
        auto a = mm::placed_array<int>::allocate(0, place);
        EXPECT_TRUE(a.empty());
        EXPECT_EQ(a.get(), nullptr);
        EXPECT_EQ(a.bytes(), 0u);
        EXPECT_FALSE(a.page_managed());
    }
}

TEST(PlacedArray, MoveTransfersOwnership) {
    for (const auto &place : {mm::mem_placement{}, shrinking()}) {
        auto a = mm::placed_array<int>::allocate(8, place);
        const bool paged = a.page_managed();
        const std::size_t bytes = a.bytes();
        int *data = a.get();
        data[3] = 42;
        mm::placed_array<int> b = std::move(a);
        EXPECT_EQ(a.get(), nullptr);
        EXPECT_EQ(a.bytes(), 0u);
        EXPECT_FALSE(a.page_managed());
        EXPECT_EQ(b.get(), data) << "elements never move (type stability)";
        EXPECT_EQ(b[3], 42);
        EXPECT_EQ(b.page_managed(), paged);
        EXPECT_EQ(b.bytes(), bytes);
        mm::placed_array<int> c;
        c = std::move(b);
        EXPECT_EQ(b.get(), nullptr);
        EXPECT_EQ(c.get(), data);
        EXPECT_EQ(c[3], 42);
    }
}

// Both storage kinds give the same arena: the same geometric chunk
// pattern, allocation order, stable distinct pointers and content.  Only
// the byte accounting differs, by page rounding.
TEST(ArenaAccounting, ChunkPatternIsTheSameWithShrinkOffAndOn) {
    mm::alloc_counters plain_counters, paged_counters;
    arena<int> plain{4, {}, &plain_counters};
    arena<int> paged{4, shrinking(), &paged_counters};
    std::vector<int *> plain_ptrs, paged_ptrs;
    for (int i = 0; i < 100; ++i) {
        int *p = plain.allocate();
        int *q = paged.allocate();
        *p = i;
        *q = i;
        plain_ptrs.push_back(p);
        paged_ptrs.push_back(q);
    }
    EXPECT_EQ(plain.size(), paged.size());
    EXPECT_EQ(std::set<int *>(paged_ptrs.begin(), paged_ptrs.end()).size(),
              100u);
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_EQ(*plain_ptrs[i], *paged_ptrs[i]);
        EXPECT_EQ(paged.at(i), static_cast<int>(i));
    }
    int expect = 0;
    paged.for_each([&](int &v) { EXPECT_EQ(v, expect++); });
    EXPECT_EQ(expect, 100);

    // Chunks of 4, 8, 16, 32 and 64 ints.
    const auto plain_snap = plain_counters.snapshot();
    const auto paged_snap = paged_counters.snapshot();
    EXPECT_EQ(plain_snap.chunks, 5u);
    EXPECT_EQ(paged_snap.chunks, 5u);
    ASSERT_EQ(plain.chunk_count(), 5u);
    ASSERT_EQ(paged.chunk_count(), 5u);
    std::uint64_t plain_bytes = 0, paged_bytes = 0;
    for (std::size_t c = 0; c < 5; ++c) {
        const std::size_t n = std::size_t{4} << c;
        EXPECT_EQ(plain.chunk_bytes(c), n * sizeof(int));
        EXPECT_EQ(paged.chunk_bytes(c), page_rounded(n * sizeof(int)));
        EXPECT_FALSE(plain.chunk_page_managed(c));
        EXPECT_TRUE(paged.chunk_page_managed(c));
        plain_bytes += plain.chunk_bytes(c);
        paged_bytes += paged.chunk_bytes(c);
    }
    EXPECT_EQ(plain_snap.bytes, plain_bytes);
    EXPECT_EQ(paged_snap.bytes, paged_bytes);
    EXPECT_EQ(plain_snap.page_aligned_chunks, 0u);
    EXPECT_EQ(paged_snap.page_aligned_chunks, paged_snap.chunks);
}

TEST(ArenaAccounting, ReleaseAndReactivateMoveTheGauges) {
    arena<std::uint64_t> plain{16};
    *plain.allocate() = 1;
    EXPECT_FALSE(plain.release_chunk_pages(0))
        << "heap storage shares pages and is never released";
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    // An 8 KiB chunk of aligned heap storage and a 128 KiB mapped one.
    for (const std::size_t n : {std::size_t{1024}, std::size_t{16384}}) {
        SCOPED_TRACE(n);
        mm::alloc_counters counters;
        arena<std::uint64_t> a{n, shrinking(), &counters};
        for (std::size_t i = 0; i < n; ++i)
            *a.allocate() = 7;
        ASSERT_EQ(a.chunk_count(), 1u);
        ASSERT_TRUE(a.release_chunk_pages(0));
        auto snap = counters.snapshot();
        EXPECT_EQ(snap.reclaimed_chunks, 1u);
        EXPECT_EQ(snap.released_bytes, a.chunk_bytes(0));
        EXPECT_EQ(snap.shrink_events, 1u);
#if defined(__linux__)
        if (n * sizeof(std::uint64_t) >= mm::mapped_array_bytes) {
            EXPECT_EQ(count_resident(a.chunk_data(0), a.chunk_bytes(0)),
                      0u);
        }
#endif
        EXPECT_EQ(a.at(5), 0u) << "released pages read back as zeros";
        EXPECT_EQ(a.at(n - 1), 0u);
        a.note_chunk_reactivated(0);
        a.at(5) = 9;
        EXPECT_EQ(a.at(5), 9u);
        snap = counters.snapshot();
        EXPECT_EQ(snap.reclaimed_chunks, 0u);
        EXPECT_EQ(snap.released_bytes, 0u);
        EXPECT_EQ(snap.shrink_events, 1u) << "cumulative";
        EXPECT_EQ(snap.reactivated_chunks, 1u);
    }
}

#if defined(__linux__)
// 256 KiB: above the mapping threshold, below a transparent huge page,
// so residency is per 4 KiB page.
TEST(PlacedArray, LargeArrayCommitsOnlyWrittenPages) {
    constexpr std::size_t n = 32768;
    static_assert(n * sizeof(std::uint64_t) >= mm::mapped_array_bytes);
    for (const auto policy :
         {mm::reclaim_policy::none, mm::reclaim_policy::full}) {
        SCOPED_TRACE(mm::reclaim::reclaim_policy_name(policy));
        mm::mem_placement place;
        place.reclaim.policy = policy;
        auto a = mm::placed_array<std::uint64_t>::allocate(n, place);
        ASSERT_NE(a.get(), nullptr);
        EXPECT_EQ(a.bytes(), n * sizeof(std::uint64_t));
        EXPECT_EQ(a.page_managed(), policy == mm::reclaim_policy::full)
            << "page_managed means allocated under a shrink placement";
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.region()) %
                      mm::page_size(),
                  0u);
        EXPECT_EQ(count_resident(a.region(), a.bytes()), 0u)
            << "allocation writes nothing";
        a[0] = 1;
        const auto resident = resident_pages(a.region(), a.bytes());
        EXPECT_TRUE(resident[0]);
        EXPECT_EQ(count_resident(a.region(), a.bytes()), 1u)
            << "one write commits one page";
        for (std::size_t i = 1; i < n; ++i)
            ASSERT_EQ(a[i], 0u) << "untouched pages read the default state";
    }
}
#endif

TEST(PlacedArray, SmallArraysStayOnTheHeap) {
    // One byte below the threshold: today's plain heap array.
    constexpr std::size_t n = mm::mapped_array_bytes - 1;
    auto a = mm::placed_array<unsigned char>::allocate(n, {});
    EXPECT_EQ(a.bytes(), n) << "no page rounding";
    EXPECT_FALSE(a.page_managed());
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(a[i], 0);
}

// Large pool arrays are never constructed: their elements are whatever
// zero pages hold.  That is each pooled type's default state only if
// default construction writes zero bytes and leaves no member unset.
template <typename T>
void expect_zero_default() {
    alignas(T) unsigned char zeroed[sizeof(T)] = {};
    new (zeroed) T();
    for (const unsigned char b : zeroed)
        ASSERT_EQ(b, 0) << "default construction wrote a non-zero byte";
}

template <typename KV>
class ZeroDefault : public ::testing::Test {};

template <typename K, typename V>
struct kv {
    using key = K;
    using value = V;
};

using instantiated_kv =
    ::testing::Types<kv<std::uint32_t, std::uint32_t>,
                     kv<std::uint32_t, std::uint64_t>,
                     kv<std::uint64_t, std::uint32_t>,
                     kv<std::uint64_t, std::uint64_t>>;
TYPED_TEST_SUITE(ZeroDefault, instantiated_kv);

TYPED_TEST(ZeroDefault, BlockEntryIsAllZeroBytes) {
    using entry = typename block<typename TypeParam::key,
                                 typename TypeParam::value>::entry;
    expect_zero_default<entry>();
    // Over garbage, every member is still set to its zero default.
    alignas(entry) unsigned char junk[sizeof(entry)];
    std::memset(junk, 0xa5, sizeof junk);
    const entry *e = new (junk) entry();
    EXPECT_EQ(e->it.load(), nullptr);
    EXPECT_EQ(e->version.load(), 0u);
    EXPECT_EQ(e->key.load(), 0u);
}

TYPED_TEST(ZeroDefault, ItemIsAllZeroBytes) {
    using item_t = item<typename TypeParam::key, typename TypeParam::value>;
    expect_zero_default<item_t>();
    alignas(item_t) unsigned char junk[sizeof(item_t)];
    std::memset(junk, 0xa5, sizeof junk);
    item_t *it = new (junk) item_t();
    EXPECT_EQ(it->version(), 0u);
    EXPECT_TRUE(it->reusable()) << "version 0 means free";
    EXPECT_EQ(it->key(), 0u);
    EXPECT_EQ(it->value(), 0u);
}

TYPED_TEST(ZeroDefault, MappedPoolArraysReadTheDefaultState) {
    using K = typename TypeParam::key;
    using V = typename TypeParam::value;
    using entry = typename block<K, V>::entry;
    for (const auto &place : {mm::mem_placement{}, shrinking()}) {
        // Both arrays are well above the mapping threshold.
        const auto entries =
            mm::placed_array<entry>::allocate(std::size_t{1} << 13, place);
        const auto items =
            mm::placed_array<item<K, V>>::allocate(std::size_t{1} << 13,
                                                   place);
        for (const std::size_t i :
             {std::size_t{0}, std::size_t{4097}, entries.size() - 1}) {
            EXPECT_EQ(entries[i].it.load(), nullptr);
            EXPECT_EQ(entries[i].version.load(), 0u);
            EXPECT_EQ(entries[i].key.load(), 0u);
            EXPECT_EQ(items[i].version(), 0u);
            EXPECT_TRUE(items[i].reusable());
        }
    }
}

// A 2^12-entry block's entries are mapped storage: the block pool's
// shrink releases them and the next acquire of the block refaults them.
TEST(BlockPoolStorage, MappedEntriesReleaseAndReactivate) {
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    using pool_t = block_pool<std::uint32_t, std::uint32_t>;
    using item_t = item<std::uint32_t, std::uint32_t>;
    constexpr std::uint32_t pow = 12;
    static_assert((sizeof(block<std::uint32_t, std::uint32_t>::entry)
                   << pow) >= mm::mapped_array_bytes);
    pool_t pool{shrinking()};
    std::vector<item_t> items(64);
    auto *b = pool.acquire(pow, pow, pool_t::always_recyclable);
    for (std::uint32_t i = 0; i < items.size(); ++i) {
        const std::uint64_t v = items[i].publish(1000 - i, 0);
        ASSERT_TRUE(b->append({&items[i], v, 1000 - i}));
    }
    b->seal();
    const auto &storage = b->entry_storage();
    ASSERT_TRUE(storage.page_managed());
    pool.release(b);
    ASSERT_EQ(pool.quiescent_shrink(), 1u);
    EXPECT_TRUE(b->entries_released());
    EXPECT_EQ(pool.stats().snapshot().released_bytes, storage.bytes());
#if defined(__linux__)
    EXPECT_EQ(count_resident(storage.region(), storage.bytes()), 0u);
#endif
    EXPECT_TRUE(b->load_entry(0).empty()) << "released entries read empty";

    auto *again = pool.acquire(pow, 1, pool_t::always_recyclable);
    ASSERT_EQ(again, b) << "the free block is recycled, not reallocated";
    EXPECT_FALSE(b->entries_released());
    const std::uint64_t v = items[0].publish(5, 0);
    ASSERT_TRUE(b->append({&items[0], v, 5}));
    b->seal();
    EXPECT_EQ(b->load_entry(0).key, 5u);
    EXPECT_EQ(b->peek_min(1).it, &items[0]);
    const auto snap = pool.stats().snapshot();
    EXPECT_EQ(snap.reactivated_chunks, 1u);
    EXPECT_EQ(snap.released_bytes, 0u);
    EXPECT_EQ(snap.chunks, 1u);
    pool.release(b);
}

TEST(MemoryJson, CarriesTheDocumentedSchema) {
    mm::memory_stats m;
    m.items.chunks = 2;
    m.items.bytes = 8192;
    m.items.reuse_hits = 10;
    m.items.fresh_allocs = 30;
    m.items.page_aligned_chunks = 2;
    m.dist_blocks.chunks = 8;
    m.dist_blocks.bytes = 65536;
    m.shared_blocks.chunks = 4;
    m.shared_blocks.growth_beyond_bound = 1;
    m.shared_blocks.released_bytes = 4096;
    const std::string json = mm::memory_json(m);
    EXPECT_EQ(json.rfind("{\"pools\":{", 0), 0u) << json;
    for (const char *needle :
         {"\"items\":{", "\"dist_blocks\":{", "\"shared_blocks\":{",
          "\"chunks\":2", "\"bytes\":8192", "\"reuse_hits\":10",
          "\"fresh_allocs\":30", "\"reuse_hit_rate\":0.25",
          "\"growth_beyond_bound\":1", "\"page_aligned_chunks\":2",
          "\"reclaimed_chunks\":",
          "\"released_bytes\":4096", "\"shrink_events\":",
          "\"reactivated_chunks\":"})
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle << " in " << json;
    for (const char *gone :
         {"policy", "resident", "bound_chunks", "freelist"})
        EXPECT_EQ(json.find(gone), std::string::npos)
            << "unexpected " << gone << " in " << json;
}

} // namespace
} // namespace klsm
