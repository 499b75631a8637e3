// A k_lsm driven by pinned worker threads.
//
// Four workers pin themselves with pin_self to the one pinned order the
// benchmarks offer (`--pin affinity`: the CPUs of the process's
// affinity mask, as klsm_bench's pin_order builds it) and run a mixed
// insert/delete workload.  Each run checks conservation (every inserted
// item comes out exactly once) and, in a serialized mirror run, that no
// delete skips more than rho = (T+1)*k smaller keys (Lemma 2,
// harness/quality.hpp).

#include "klsm/k_lsm.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "harness/quality.hpp"
#include "topo/pinning.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

namespace klsm {
namespace {

constexpr unsigned threads = 4;

/// Pin the calling worker `w` by `order`, as the harnesses do.  Every
/// cpu of the order is in the process's mask, so the pin must hold.
void pin_worker(const std::vector<std::uint32_t> &order, unsigned w) {
    const std::uint32_t cpu = order[w % order.size()];
    ASSERT_TRUE(topo::pin_self(cpu)) << "worker " << w;
    const auto now = topo::current_cpu();
    if (now) {
        EXPECT_EQ(*now, cpu) << "worker " << w;
    }
}

TEST(PinnedKlsm, ConcurrentInsertDeleteConservesItems) {
    const auto order = topo::cpu_order(topo::pin_policy::affinity);
    ASSERT_FALSE(order.empty());
    k_lsm<std::uint32_t, std::uint32_t> q{64};
    constexpr std::uint32_t per_thread = 20000;
    std::atomic<std::uint64_t> inserted{0}, deleted{0};
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < threads; ++w) {
        ts.emplace_back([&, w] {
            pin_worker(order, w);
            xoroshiro128 rng{1234 + w};
            std::uint32_t k, v;
            std::uint64_t mine_in = 0, mine_out = 0;
            for (std::uint32_t i = 0; i < per_thread; ++i) {
                if (rng.bounded(2) == 0) {
                    q.insert(static_cast<std::uint32_t>(rng.bounded(1 << 20)),
                             w);
                    ++mine_in;
                } else if (q.try_delete_min(k, v)) {
                    EXPECT_LT(v, threads);
                    ++mine_out;
                }
            }
            inserted.fetch_add(mine_in);
            deleted.fetch_add(mine_out);
        });
    }
    for (auto &th : ts)
        th.join();
    std::uint32_t k, v;
    std::uint64_t drained = 0;
    while (q.try_delete_min(k, v))
        ++drained;
    EXPECT_EQ(deleted.load() + drained, inserted.load());
    EXPECT_FALSE(q.try_delete_min(k, v));
}

// A serialized mirror workload as in harness/quality.hpp: each operation
// runs under one lock next to a sorted mirror, so the rank of every
// deleted key is exact.  The k-LSM's bound is structural, so every run
// must stay within it; there is no retry or median.
TEST(PinnedKlsm, RankErrorWithinRho) {
    constexpr std::size_t k = 32;
    const std::uint64_t rho = rank_error_bound(threads, k);
    const auto order = topo::cpu_order(topo::pin_policy::affinity);
    ASSERT_FALSE(order.empty());
    k_lsm<std::uint32_t, std::uint32_t> q{k};
    std::multiset<std::uint32_t> mirror;
    std::mutex mtx;
    std::uint64_t rank_max = 0, deletes = 0;
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < threads; ++w) {
        ts.emplace_back([&, w] {
            pin_worker(order, w);
            xoroshiro128 rng{977 + 31 * w};
            std::uint32_t key, value;
            for (std::uint32_t i = 0; i < 10000; ++i) {
                std::lock_guard<std::mutex> g(mtx);
                if (rng.bounded(2) == 0) {
                    const auto key_in =
                        static_cast<std::uint32_t>(rng.bounded(1 << 20));
                    q.insert(key_in, 0);
                    mirror.insert(key_in);
                } else if (q.try_delete_min(key, value)) {
                    const auto it = mirror.find(key);
                    ASSERT_NE(it, mirror.end());
                    rank_max = std::max<std::uint64_t>(
                        rank_max, static_cast<std::uint64_t>(
                                      std::distance(mirror.begin(), it)));
                    ++deletes;
                    mirror.erase(it);
                }
            }
        });
    }
    for (auto &th : ts)
        th.join();
    EXPECT_GT(deletes, 0u);
    EXPECT_LE(rank_max, rho);
}

} // namespace
} // namespace klsm
