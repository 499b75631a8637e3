// A k_lsm driven by pinned worker threads.
//
// Four workers pin themselves with pin_self to the CPUs of each pinning
// policy the benchmarks offer (compact, scatter; topo::cpu_order over
// the discovered machine, as klsm_bench's pin_order does) and run a
// mixed insert/delete workload.  Each run checks conservation (every
// inserted item comes out exactly once) and, in a serialized mirror
// run, that no delete skips more than rho = (T+1)*k smaller keys
// (Lemma 2, harness/quality.hpp).  The four-node fixture checks that
// topology discovery, which the pinning orders are built from, sees
// every node.

#include "klsm/k_lsm.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/quality.hpp"
#include "topo/pinning.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

namespace klsm {
namespace {

constexpr unsigned threads = 4;
constexpr topo::pin_policy pinned_policies[] = {topo::pin_policy::compact,
                                                topo::pin_policy::scatter};

/// Pin the calling worker `w` by `order` (best effort, as the harnesses
/// do) and check that a successful pin really moved it.
void pin_worker(const std::vector<std::uint32_t> &order, unsigned w) {
    if (order.empty())
        return;
    const std::uint32_t cpu = order[w % order.size()];
    if (topo::pin_self(cpu)) {
        const auto now = topo::current_cpu();
        if (now) {
            EXPECT_EQ(*now, cpu) << "worker " << w;
        }
    }
}

TEST(PinnedKlsm, EveryPolicyOrdersTheOnlineCpus) {
    const auto &t = topo::topology::system();
    for (const auto policy : pinned_policies) {
        auto order = topo::cpu_order(t, policy);
        ASSERT_EQ(order.size(), t.num_cpus()) << pin_policy_name(policy);
        std::sort(order.begin(), order.end());
        EXPECT_EQ(std::unique(order.begin(), order.end()), order.end())
            << pin_policy_name(policy) << " repeats a cpu";
    }
}

TEST(PinnedKlsm, ConcurrentInsertDeleteConservesItems) {
    for (const auto policy : pinned_policies) {
        const auto order = topo::cpu_order(topo::topology::system(), policy);
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
                        q.insert(static_cast<std::uint32_t>(
                                     rng.bounded(1 << 20)),
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
        EXPECT_EQ(deleted.load() + drained, inserted.load())
            << pin_policy_name(policy);
        EXPECT_FALSE(q.try_delete_min(k, v));
    }
}

// A serialized mirror workload as in harness/quality.hpp: each operation
// runs under one lock next to a sorted mirror, so the rank of every
// deleted key is exact.  The k-LSM's bound is structural, so every run
// must stay within it; there is no retry or median.
TEST(PinnedKlsm, RankErrorWithinRho) {
    constexpr std::size_t k = 32;
    const std::uint64_t rho = rank_error_bound(threads, k);
    for (const auto policy : pinned_policies) {
        const auto order = topo::cpu_order(topo::topology::system(), policy);
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
                        const auto key_in = static_cast<std::uint32_t>(
                            rng.bounded(1 << 20));
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
        EXPECT_GT(deletes, 0u) << pin_policy_name(policy);
        EXPECT_LE(rank_max, rho) << pin_policy_name(policy);
    }
}

TEST(PinnedKlsm, FourNodeFixtureDiscovers) {
    const auto t = topo::topology::discover(
        std::string(KLSM_TOPO_FIXTURE_DIR) + "/fake_sysfs_4node");
    EXPECT_EQ(t.num_nodes(), 4u);
    EXPECT_EQ(t.num_cpus(), 4u);
    EXPECT_EQ(t.node_ids(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
    for (const std::uint32_t node : t.node_ids())
        EXPECT_EQ(t.cpus_of_node(node).size(), 1u) << "node " << node;
    for (const auto policy : pinned_policies)
        EXPECT_EQ(topo::cpu_order(t, policy).size(), 4u)
            << pin_policy_name(policy);
}

} // namespace
} // namespace klsm
