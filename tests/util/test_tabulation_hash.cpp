// splitmix64 (util/rng.hpp): the stateless mixer that seeds every
// generator and serves as a cheap hash of small integers.

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

namespace klsm {
namespace {

std::uint64_t mix(std::uint64_t x) { return splitmix64(x); }

TEST(SplitMix64, Deterministic) {
    for (std::uint64_t x : {0ull, 1ull, 255ull, 256ull, 0xffffffffull})
        EXPECT_EQ(mix(x), mix(x));
    // The step advances its state by the golden-ratio increment, so two
    // successive draws from one state differ.
    std::uint64_t state = 42;
    const std::uint64_t first = splitmix64(state);
    EXPECT_NE(first, splitmix64(state));
    EXPECT_EQ(state, 42 + 2 * 0x9e3779b97f4a7c15ULL);
}

TEST(SplitMix64, DistinctSeedsGiveDistinctOutputs) {
    // Seeding many generators from consecutive seeds must not hand two
    // of them the same starting state.
    int same = 0;
    for (std::uint64_t x = 0; x < 1000; ++x)
        same += (mix(x) == mix(x + 1));
    EXPECT_EQ(same, 0);
}

TEST(SplitMix64, NoCollisionsOnSmallInputs) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t x = 0; x < 4096; ++x)
        seen.insert(mix(x));
    // A bijection on 64 bits: 4096 distinct inputs, 4096 outputs.
    EXPECT_EQ(seen.size(), 4096u);
}

TEST(SplitMix64, LowBitsSpread) {
    // Consecutive small inputs (thread ids, indices) must spread over
    // the 64 positions of the low 6 bits.
    std::set<std::uint64_t> positions;
    for (std::uint64_t x = 0; x < 64; ++x)
        positions.insert(mix(x) & 63);
    EXPECT_GE(positions.size(), 32u);
}

} // namespace
} // namespace klsm
