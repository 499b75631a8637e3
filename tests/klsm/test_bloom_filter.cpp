// The per-block Bloom filter of contributing thread ids that the shared
// LSM's local-ordering check relies on (block::bloom_insert, bloom_or,
// bloom_may_contain).

#include "klsm/block.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace klsm {
namespace {

using block_t = block<std::uint32_t, std::uint64_t>;

TEST(BloomFilter, EmptyContainsNothing) {
    block_t b{0};
    EXPECT_EQ(b.bloom_raw(), 0u);
    for (std::uint32_t id = 0; id < 64; ++id)
        EXPECT_FALSE(b.bloom_may_contain(id)) << "id " << id;
}

// The property local ordering depends on: no false negatives, ever.
TEST(BloomFilter, NoFalseNegatives) {
    for (std::uint32_t id = 0; id < 256; ++id) {
        block_t b{0};
        b.bloom_insert(id);
        EXPECT_TRUE(b.bloom_may_contain(id)) << "false negative, id " << id;
    }
}

TEST(BloomFilter, NoFalseNegativesAfterMerge) {
    block_t a{0}, c{0};
    for (std::uint32_t id = 0; id < 16; ++id)
        a.bloom_insert(id);
    for (std::uint32_t id = 16; id < 32; ++id)
        c.bloom_insert(id);
    a.bloom_or(c.bloom_raw());
    for (std::uint32_t id = 0; id < 32; ++id)
        EXPECT_TRUE(a.bloom_may_contain(id)) << "id " << id;
}

TEST(BloomFilter, FalsePositiveRateIsModerate) {
    block_t b{0};
    for (std::uint32_t id = 0; id < 4; ++id)
        b.bloom_insert(id);
    int fp = 0;
    for (std::uint32_t id = 4; id < 260; ++id)
        fp += b.bloom_may_contain(id);
    // 4 inserted ids set <= 8 of 64 bits; two-probe false positive rate
    // is about (8/64)^2 ~ 1.6%, so 256 probes should see only a handful.
    EXPECT_LT(fp, 40);
}

TEST(BloomFilter, ReuseClears) {
    block_t b{0};
    b.bloom_insert(7);
    EXPECT_NE(b.bloom_raw(), 0u);
    b.reuse_begin(0);
    b.seal();
    EXPECT_EQ(b.bloom_raw(), 0u);
    EXPECT_FALSE(b.bloom_may_contain(7));
}

TEST(BloomFilter, MergeIsUnionOfBits) {
    block_t a{0}, c{0};
    a.bloom_insert(3);
    c.bloom_insert(5);
    const std::uint64_t expected = a.bloom_raw() | c.bloom_raw();
    a.bloom_or(c.bloom_raw());
    EXPECT_EQ(a.bloom_raw(), expected);
}

} // namespace
} // namespace klsm
