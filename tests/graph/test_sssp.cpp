// SSSP correctness: the parallel label-correcting driver must produce
// exactly Dijkstra's distances on every queue type, thread count, and
// relaxation parameter — relaxation affects work, never the result.

#include "baselines/centralized_k.hpp"
#include "baselines/hybrid_k.hpp"
#include "baselines/linden.hpp"
#include "baselines/multiqueue.hpp"
#include "baselines/spin_heap.hpp"
#include "baselines/spraylist.hpp"
#include "graph/dijkstra.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/parallel_sssp.hpp"
#include "klsm/block.hpp"
#include "klsm/k_lsm.hpp"
#include "mm/item_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

namespace klsm {
namespace {

graph test_graph(std::uint32_t nodes, double p, std::uint64_t seed) {
    erdos_renyi_params params;
    params.nodes = nodes;
    params.edge_probability = p;
    params.max_weight = 100000000;
    params.seed = seed;
    return make_erdos_renyi(params);
}

void expect_dijkstra_equal(const graph &g, const sssp_state &state,
                           const dijkstra_result &ref) {
    for (std::uint32_t u = 0; u < g.num_nodes(); ++u)
        ASSERT_EQ(state.dist(u), ref.dist[u]) << "node " << u;
}

TEST(Dijkstra, TinyHandComputedGraph) {
    //   0 --1--> 1 --1--> 2
    //   0 ------5-------> 2
    std::vector<edge> edges = {{0, 1, 1}, {1, 2, 1}, {0, 2, 5}};
    graph g{3, edges};
    auto res = dijkstra(g, 0);
    EXPECT_EQ(res.dist[0], 0u);
    EXPECT_EQ(res.dist[1], 1u);
    EXPECT_EQ(res.dist[2], 2u);
    EXPECT_EQ(res.settled, 3u);
}

TEST(Dijkstra, UnreachableNodes) {
    graph g{4, {{0, 1, 3}}};
    auto res = dijkstra(g, 0);
    EXPECT_EQ(res.dist[1], 3u);
    EXPECT_EQ(res.dist[2], sssp_unreached);
    EXPECT_EQ(res.dist[3], sssp_unreached);
    EXPECT_EQ(res.settled, 2u);
}

struct sssp_case {
    const char *queue;
    unsigned threads;
    std::size_t k;
};

class ParallelSsspMatchesDijkstra
    : public ::testing::TestWithParam<sssp_case> {};

TEST_P(ParallelSsspMatchesDijkstra, OnRandomGraph) {
    const auto [queue, threads, k] = GetParam();
    graph g = test_graph(500, 0.05, 12345);
    auto ref = dijkstra(g, 0);

    sssp_state state{g.num_nodes()};
    sssp_stats stats;
    const std::string name = queue;
    if (name == "klsm") {
        k_lsm<std::uint64_t, std::uint32_t, sssp_lazy> pq{
            k, sssp_lazy{&state}};
        stats = parallel_sssp(pq, g, 0, threads, state);
    } else if (name == "centralized") {
        centralized_k_pq<std::uint64_t, std::uint32_t> pq{k};
        stats = parallel_sssp(pq, g, 0, threads, state);
    } else if (name == "hybrid") {
        hybrid_k_pq<std::uint64_t, std::uint32_t> pq{k};
        stats = parallel_sssp(pq, g, 0, threads, state);
    } else if (name == "multiq") {
        multiqueue<std::uint64_t, std::uint32_t> pq{threads};
        stats = parallel_sssp(pq, g, 0, threads, state);
    } else if (name == "linden") {
        linden_pq<std::uint64_t, std::uint32_t> pq{32};
        stats = parallel_sssp(pq, g, 0, threads, state);
    } else if (name == "spray") {
        spray_pq<std::uint64_t, std::uint32_t> pq{threads};
        stats = parallel_sssp(pq, g, 0, threads, state);
    } else if (name == "spinheap") {
        spin_heap<std::uint64_t, std::uint32_t> pq;
        stats = parallel_sssp(pq, g, 0, threads, state);
    } else if (name == "dlsm") {
        dist_pq<std::uint64_t, std::uint32_t> pq;
        stats = parallel_sssp(pq, g, 0, threads, state);
    } else {
        FAIL() << "unknown queue " << name;
    }

    expect_dijkstra_equal(g, state, ref);
    EXPECT_EQ(stats.settled, ref.settled);
    EXPECT_GE(stats.expansions, ref.settled)
        << "every reachable node is expanded at least once";
}

INSTANTIATE_TEST_SUITE_P(
    Queues, ParallelSsspMatchesDijkstra,
    ::testing::Values(sssp_case{"klsm", 1, 256}, sssp_case{"klsm", 4, 0},
                      sssp_case{"klsm", 4, 256},
                      sssp_case{"klsm", 4, 4096},
                      sssp_case{"centralized", 4, 256},
                      sssp_case{"hybrid", 4, 256},
                      sssp_case{"multiq", 4, 0},
                      sssp_case{"linden", 4, 0},
                      sssp_case{"spray", 4, 0},
                      sssp_case{"spinheap", 4, 0},
                      sssp_case{"dlsm", 4, 0}),
    [](const auto &info) {
        return std::string(info.param.queue) + "_" +
               std::to_string(info.param.threads) + "t_k" +
               std::to_string(info.param.k);
    });

TEST(ParallelSssp, SingleThreadExactQueueDoesMinimalWork) {
    graph g = test_graph(300, 0.05, 777);
    auto ref = dijkstra(g, 0);
    sssp_state state{g.num_nodes()};
    spin_heap<std::uint64_t, std::uint32_t> pq;
    auto stats = parallel_sssp(pq, g, 0, 1, state);
    expect_dijkstra_equal(g, state, ref);
    // An exact queue processed sequentially expands each node once.
    EXPECT_EQ(stats.expansions, ref.settled);
}

// Wraps spin_heap and checks the termination invariant: under its own
// mutex, after every insert and every pop, pending() is at least the
// number of queued entries.  Every 7th try_delete_min fails spuriously
// without touching the heap, so workers take the failed-pop path (and
// flush what their stale pops owe) while work is still queued.
class pending_checking_heap {
public:
    using key_type = std::uint64_t;
    using value_type = std::uint32_t;

    explicit pending_checking_heap(sssp_state &state) : state_(state) {}

    void insert(const key_type &key, const value_type &value) {
        std::lock_guard<std::mutex> lock{mu_};
        heap_.insert(key, value);
        ++queued_;
        check();
    }

    bool try_delete_min(key_type &key, value_type &value) {
        std::lock_guard<std::mutex> lock{mu_};
        if (++calls_ % 7 == 0)
            return false;
        if (!heap_.try_delete_min(key, value))
            return false;
        --queued_;
        check();
        return true;
    }

    std::uint64_t violations() const { return violations_; }
    std::int64_t worst_shortfall() const { return worst_shortfall_; }

private:
    void check() {
        const std::int64_t shortfall = queued_ - state_.pending().load();
        if (shortfall > 0) {
            ++violations_;
            worst_shortfall_ = std::max(worst_shortfall_, shortfall);
        }
    }

    sssp_state &state_;
    std::mutex mu_;
    spin_heap<key_type, value_type> heap_;
    std::int64_t queued_ = 0;
    std::uint64_t calls_ = 0;
    std::uint64_t violations_ = 0;
    std::int64_t worst_shortfall_ = 0;
};

class ParallelSsspPending : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelSsspPending, NeverFallsBelowTheQueuedEntries) {
    const unsigned threads = GetParam();
    graph g = test_graph(500, 0.05, 4242);
    auto ref = dijkstra(g, 0);
    sssp_state state{g.num_nodes()};
    pending_checking_heap pq{state};
    const auto stats = parallel_sssp(pq, g, 0, threads, state);
    EXPECT_EQ(pq.violations(), 0u)
        << "pending() fell below the queued entries by up to "
        << pq.worst_shortfall();
    expect_dijkstra_equal(g, state, ref);
    EXPECT_EQ(stats.settled, ref.settled);
    EXPECT_EQ(state.pending().load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelSsspPending,
                         ::testing::Values(1u, 4u),
                         [](const auto &info) {
                             return std::to_string(info.param) + "t";
                         });

TEST(ParallelSssp, LazyDeletionReducesStalePops) {
    graph g = test_graph(400, 0.1, 31);
    auto ref = dijkstra(g, 0);

    sssp_state lazy_state{g.num_nodes()};
    k_lsm<std::uint64_t, std::uint32_t, sssp_lazy> lazy_q{
        256, sssp_lazy{&lazy_state}};
    auto lazy_stats = parallel_sssp(lazy_q, g, 0, 2, lazy_state);
    expect_dijkstra_equal(g, lazy_state, ref);

    sssp_state plain_state{g.num_nodes()};
    k_lsm<std::uint64_t, std::uint32_t> plain_q{256};
    auto plain_stats = parallel_sssp(plain_q, g, 0, 2, plain_state);
    expect_dijkstra_equal(g, plain_state, ref);

    // Lazy deletion drops superseded entries during merges, so fewer of
    // them surface as stale pops.  (Both runs are still correct; this is
    // a statistical expectation on a seed chosen to be stable.)
    EXPECT_LE(lazy_stats.stale_pops, plain_stats.stale_pops);
}

// A merge can read a torn entry from a recycled block: the item and
// version of the new entry next to the cached key of the old one.  The
// lazy verdict must judge the item's own key, which the take's version
// check certifies, not the cached one.
TEST(SsspLazy, JudgesTheItemKeyNotTheCachedKey) {
    using block_t = block<std::uint64_t, std::uint32_t>;
    constexpr std::uint32_t u = 3;
    sssp_state state{8};
    state.relax(u, 10);
    state.pending().store(1);
    item_pool<std::uint64_t, std::uint32_t> pool;
    const sssp_lazy lazy{&state};

    // Current entry for u (key 10 == dist) behind a stale cached key.
    auto live = pool.allocate(10, u);
    live.key = 50;
    block_t b{1};
    b.reuse_begin(1);
    EXPECT_TRUE(b.append(live, lazy)) << "a live entry was dropped";
    EXPECT_TRUE(live.alive());

    // Superseded entry for u (key 50 > dist) behind a cached key of 10.
    auto stale = pool.allocate(50, u);
    stale.key = 10;
    EXPECT_FALSE(b.append(stale, lazy));
    EXPECT_FALSE(stale.alive()) << "an expired entry must be taken";
    b.seal();
    EXPECT_EQ(b.filled(), 1u);
    EXPECT_EQ(state.pending().load(), 0) << "one drop notification";
}

} // namespace
} // namespace klsm
