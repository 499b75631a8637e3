// Property tests: the sequential LSM at one thread against a
// std::multiset oracle over randomized operation sequences,
// parameterized over seeds and op mixes.  Both faces of it run the same
// sequences: the standalone distributed LSM (`dist_pq`) and one
// thread's `dist_lsm_local` driven directly (find_min + take).

#include "klsm/dist_lsm.hpp"
#include "klsm/k_lsm.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

namespace klsm {
namespace {

using key_t = std::uint32_t;
using val_t = std::uint64_t;

struct via_dist_pq {
    dist_pq<key_t, val_t> q;

    void insert(key_t k, val_t v) { q.insert(k, v); }
    bool delete_min(key_t &k, val_t &v) { return q.try_delete_min(k, v); }
    /// dist_pq's size is a hint; at one thread it never undercounts.
    std::size_t size_bound() const { return q.size_hint(); }
};

struct via_dist_lsm_local {
    using dist_t = dist_lsm_local<key_t, val_t>;
    dist_t d;

    void insert(key_t k, val_t v) {
        d.insert(k, v, /*tid=*/0, dist_t::unbounded, no_lazy{},
                 [](block<key_t, val_t> *, std::uint32_t) {});
    }
    bool delete_min(key_t &k, val_t &v) {
        item_ref<key_t, val_t> ref = d.find_min();
        if (ref.empty())
            return false;
        k = ref.key;
        v = ref.it->value();
        return ref.take();
    }
    std::size_t size_bound() const { return d.item_count_estimate(); }
};

struct mix_param {
    std::uint64_t seed;
    int insert_percent; // remainder are delete-mins
    int ops;
    std::uint32_t key_range;
};

/// Every delete returns the oracle's smallest key together with a value
/// that was inserted under it; the drain then returns exactly what the
/// oracle still holds.
template <typename Queue>
void check_against_oracle(const mix_param &p) {
    xoroshiro128 rng{p.seed};
    Queue q;
    std::multiset<std::pair<key_t, val_t>> oracle;
    val_t next_value = 0;

    const auto delete_and_check = [&] {
        key_t k;
        val_t v;
        ASSERT_TRUE(q.delete_min(k, v));
        ASSERT_EQ(k, oracle.begin()->first);
        const auto it = oracle.find({k, v});
        ASSERT_NE(it, oracle.end()) << "value " << v << " under key " << k;
        oracle.erase(it);
    };

    for (int i = 0; i < p.ops; ++i) {
        if (static_cast<int>(rng.bounded(100)) < p.insert_percent ||
            oracle.empty()) {
            const auto key = static_cast<key_t>(rng.bounded(p.key_range));
            q.insert(key, next_value);
            oracle.insert({key, next_value++});
        } else {
            delete_and_check();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        ASSERT_GE(q.size_bound(), oracle.size());
    }
    while (!oracle.empty()) {
        delete_and_check();
        if (::testing::Test::HasFatalFailure())
            return;
    }
    key_t k;
    val_t v;
    EXPECT_FALSE(q.delete_min(k, v));
}

class LsmPqOracle : public ::testing::TestWithParam<mix_param> {};

TEST_P(LsmPqOracle, DistPqMatchesMultisetOracle) {
    check_against_oracle<via_dist_pq>(GetParam());
}

TEST_P(LsmPqOracle, DistLsmLocalMatchesMultisetOracle) {
    check_against_oracle<via_dist_lsm_local>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, LsmPqOracle,
    ::testing::Values(mix_param{1, 50, 4000, 1000},
                      mix_param{2, 80, 4000, 100},
                      mix_param{3, 30, 4000, 10},
                      mix_param{4, 50, 4000, 5},
                      mix_param{5, 95, 4000, 1u << 31},
                      mix_param{6, 50, 8000, 2},
                      mix_param{7, 60, 4000, 1}),
    [](const auto &info) {
        return "seed" + std::to_string(info.param.seed) + "_ins" +
               std::to_string(info.param.insert_percent) + "_range" +
               std::to_string(info.param.key_range);
    });

} // namespace
} // namespace klsm
