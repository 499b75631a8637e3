// Pool storage (mm/placement.hpp, mm/arena.hpp, mm/alloc_stats.hpp):
// placed_array with shrinking off (one plain heap array) and on
// (page-aligned, pre-faulted storage the shrink tier can release),
// move semantics, arena chunk accounting, and the `memory` JSON schema.

#include "mm/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "mm/alloc_stats.hpp"
#include "mm/placement.hpp"

namespace klsm {
namespace {

mm::mem_placement shrinking() {
    mm::mem_placement place;
    place.reclaim.policy = mm::reclaim_policy::shrink;
    return place;
}

std::size_t page_rounded(std::size_t bytes) {
    const std::size_t ps = mm::page_size();
    return (bytes + ps - 1) / ps * ps;
}

TEST(PlacedArray, ShrinkOffIsPlainAllocation) {
    for (const auto policy :
         {mm::reclaim_policy::none, mm::reclaim_policy::freelist}) {
        mm::mem_placement place;
        place.reclaim.policy = policy;
        auto a = mm::placed_array<int>::allocate(100, place);
        ASSERT_NE(a.get(), nullptr);
        EXPECT_EQ(a.size(), 100u);
        EXPECT_EQ(a.bytes(), 100 * sizeof(int)) << "no page rounding";
        EXPECT_FALSE(a.page_managed());
        EXPECT_EQ(a.region(), a.get());
        for (std::size_t i = 0; i < 100; ++i)
            EXPECT_EQ(a[i], 0) << "value-initialized like make_unique<T[]>";
    }
}

TEST(PlacedArray, ShrinkOnIsPageAlignedAndPrefaulted) {
    for (const auto policy :
         {mm::reclaim_policy::shrink, mm::reclaim_policy::full}) {
        mm::mem_placement place;
        place.reclaim.policy = policy;
        auto a = mm::placed_array<int>::allocate(100, place);
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
    EXPECT_EQ(plain_snap.prefaulted_chunks, 0u);
    EXPECT_EQ(paged_snap.prefaulted_chunks, paged_snap.chunks);
}

TEST(ArenaAccounting, ReleaseAndReactivateMoveTheGauges) {
    mm::alloc_counters counters;
    arena<std::uint64_t> a{1024, shrinking(), &counters};
    for (int i = 0; i < 1024; ++i)
        *a.allocate() = 7;
    ASSERT_EQ(a.chunk_count(), 1u);
    arena<std::uint64_t> plain{16};
    *plain.allocate() = 1;
    EXPECT_FALSE(plain.release_chunk_pages(0))
        << "heap storage shares pages and is never released";
    if (!mm::reclaim::release_pages_supported())
        GTEST_SKIP() << "madvise(MADV_DONTNEED) unavailable";
    ASSERT_TRUE(a.release_chunk_pages(0));
    auto snap = counters.snapshot();
    EXPECT_EQ(snap.reclaimed_chunks, 1u);
    EXPECT_EQ(snap.released_bytes, a.chunk_bytes(0));
    EXPECT_EQ(snap.shrink_events, 1u);
    EXPECT_EQ(a.at(5), 0u) << "released pages read back as zeros";
    a.note_chunk_reactivated(0);
    a.at(5) = 9;
    EXPECT_EQ(a.at(5), 9u);
    snap = counters.snapshot();
    EXPECT_EQ(snap.reclaimed_chunks, 0u);
    EXPECT_EQ(snap.released_bytes, 0u);
    EXPECT_EQ(snap.shrink_events, 1u) << "cumulative";
    EXPECT_EQ(snap.reactivated_chunks, 1u);
}

TEST(MemoryJson, CarriesTheDocumentedSchema) {
    mm::memory_stats m;
    m.items.chunks = 2;
    m.items.bytes = 8192;
    m.items.reuse_hits = 10;
    m.items.fresh_allocs = 30;
    m.items.prefaulted_chunks = 2;
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
          "\"growth_beyond_bound\":1", "\"prefaulted_chunks\":2",
          "\"freelist_hits\":", "\"freelist_drops\":",
          "\"freelist_hit_rate\":", "\"reclaimed_chunks\":",
          "\"released_bytes\":4096", "\"shrink_events\":",
          "\"reactivated_chunks\":"})
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle << " in " << json;
    for (const char *gone : {"policy", "resident", "bound_chunks"})
        EXPECT_EQ(json.find(gone), std::string::npos)
            << "unexpected " << gone << " in " << json;
}

} // namespace
} // namespace klsm
