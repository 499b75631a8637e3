// Micro-benchmarks (google-benchmark) for the design choices DESIGN.md
// calls out: versioned item allocation/reuse and the reclaim tier's
// quiescent pool shrink, block two-way merges, stamped-pointer CAS,
// DistLSM insert/merge chains, spying, the shared LSM's take path and
// its own-entry (local ordering) scan, the k-LSM delete that skips the
// shared draw, and single-thread k-LSM operation costs across k.  These
// quantify the component costs behind Figure 3's single-thread ordering
// (DLSM ~ binary heap >> k-LSM(0)).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/dary_heap.hpp"
#include "klsm/block.hpp"
#include "klsm/dist_lsm.hpp"
#include "klsm/k_lsm.hpp"
#include "klsm/shared_lsm.hpp"
#include "mm/item_pool.hpp"
#include "util/rng.hpp"
#include "util/stamped_ptr.hpp"
#include "util/thread_id.hpp"

namespace {

using namespace klsm;
using bench_key = std::uint32_t;
using bench_val = std::uint32_t;

void BM_item_pool_alloc_take(benchmark::State &state) {
    item_pool<bench_key, bench_val> pool;
    std::uint32_t i = 0;
    for (auto _ : state) {
        auto ref = pool.allocate(i++, 0);
        benchmark::DoNotOptimize(ref.it);
        ref.take();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_item_pool_alloc_take);

// One fresh allocation after a full-budget sweep that finds only live
// items: the pool's miss path, which sssp takes on about two thirds of
// its allocations (item reuse ratio ~0.34).  No item is ever taken, so
// every sweep probes sweep_budget live items before the arena hands out
// a new one.  The pool is rebuilt (untimed) every 2^16 allocations to
// bound its memory.
void BM_item_pool_sweep_miss(benchmark::State &state) {
    using pool_t = item_pool<bench_key, bench_val>;
    constexpr std::size_t per_pool = std::size_t{1} << 16;
    std::unique_ptr<pool_t> pool;
    std::size_t made = per_pool;
    std::uint32_t i = 0;
    for (auto _ : state) {
        if (made == per_pool) {
            state.PauseTiming();
            pool = std::make_unique<pool_t>();
            for (made = 0; made < pool_t::sweep_budget; ++made)
                pool->allocate(i++, 0);
            state.ResumeTiming();
        }
        auto ref = pool->allocate(i++, 0);
        benchmark::DoNotOptimize(ref.it);
        ++made;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_item_pool_sweep_miss);

// One quiescent_shrink of a `full`-policy pool: ten full chunks (about
// 2.6 x 10^5 items) plus a part-filled eleventh, every item dead except
// one live item in each even chunk.  The shrink scans each chunk for its
// dead items: the five odd chunks release, and the sweep skips them
// from then on; the even chunks and the last one stay in service.  Set-up
// and teardown are untimed.
void BM_item_pool_quiescent_shrink(benchmark::State &state) {
    using pool_t = item_pool<bench_key, bench_val>;
    // Chunks double from 256 items, so chunk c starts at item first(c).
    const auto first = [](std::size_t c) {
        return 256 * ((std::size_t{1} << c) - 1);
    };
    constexpr std::size_t chunks = 10;
    const std::size_t items = first(chunks) + 1000;
    std::vector<bool> pinned(items, false);
    for (std::size_t c = 0; c < chunks; c += 2)
        pinned[first(c)] = true;
    mm::mem_placement place;
    place.reclaim.policy = mm::reclaim_policy::full;
    std::size_t released = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto pool = std::make_unique<pool_t>(place);
        std::vector<item_ref<bench_key, bench_val>> refs;
        refs.reserve(items);
        for (std::size_t i = 0; i < items; ++i)
            refs.push_back(pool->allocate(static_cast<bench_key>(i), 0));
        for (std::size_t i = 0; i < items; ++i)
            if (!pinned[i])
                refs[i].take();
        state.ResumeTiming();
        released = pool->quiescent_shrink();
        benchmark::DoNotOptimize(released);
        state.PauseTiming();
        pool.reset();
        state.ResumeTiming();
    }
    state.counters["released_chunks"] = static_cast<double>(released);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * items));
}
BENCHMARK(BM_item_pool_quiescent_shrink)->Unit(benchmark::kMillisecond);

// Two-way merge of two n-entry blocks.  random:0 interleaves the inputs
// (keys 2i and 2i+1), so every merge branch is predicted; random:1 draws
// each block's keys at random, so the branches are not.  Items stay
// cache-hot in both.
void BM_block_merge(benchmark::State &state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const bool random = state.range(1) != 0;
    const std::uint32_t pow = block<bench_key, bench_val>::level_for(n);
    item_pool<bench_key, bench_val> pool;
    block<bench_key, bench_val> a{pow}, b{pow}, dst{pow + 1};
    std::vector<bench_key> ka(n), kb(n);
    xoroshiro128 rng{19};
    for (std::uint32_t i = 0; i < n; ++i) {
        ka[i] = random ? static_cast<bench_key>(rng()) : 2 * i;
        kb[i] = random ? static_cast<bench_key>(rng()) : 2 * i + 1;
    }
    std::sort(ka.rbegin(), ka.rend());
    std::sort(kb.rbegin(), kb.rend());
    a.reuse_begin(pow);
    b.reuse_begin(pow);
    for (std::uint32_t i = 0; i < n; ++i) {
        a.append(pool.allocate(ka[i], 0));
        b.append(pool.allocate(kb[i], 0));
    }
    a.seal();
    b.seal();
    for (auto _ : state) {
        dst.reuse_begin(pow + 1);
        dst.merge_from(a, a.filled(), b, b.filled());
        dst.seal();
        benchmark::DoNotOptimize(dst.filled());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 2 * n);
}
BENCHMARK(BM_block_merge)
    ->ArgNames({"n", "random"})
    ->ArgsProduct({{64, 1024, 16384}, {0, 1}});

void BM_stamped_ptr_cas(benchmark::State &state) {
    struct alignas(2048) target {
        int x;
    };
    static target t;
    atomic_stamped_ptr<target> cell;
    std::uint64_t version = 0;
    cell.store({&t, version});
    for (auto _ : state) {
        const stamped_ptr<target> expected{&t, version};
        ++version;
        benchmark::DoNotOptimize(
            cell.compare_exchange(expected, {&t, version}));
    }
}
BENCHMARK(BM_stamped_ptr_cas);

void BM_dist_lsm_insert(benchmark::State &state) {
    dist_lsm_local<bench_key, bench_val> dist;
    xoroshiro128 rng{7};
    auto no_spill = [](block<bench_key, bench_val> *, std::uint32_t) {};
    std::size_t pending = 0;
    for (auto _ : state) {
        dist.insert(static_cast<bench_key>(rng()), 0, 0,
                    dist_lsm_local<bench_key, bench_val>::unbounded, no_lazy{},
                    no_spill);
        if (++pending >= 4096) {
            // Keep the structure bounded: drain.
            state.PauseTiming();
            item_ref<bench_key, bench_val> ref;
            while (!(ref = dist.find_min()).empty())
                ref.take();
            dist.consolidate();
            pending = 0;
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_dist_lsm_insert);

void BM_spy(benchmark::State &state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    dist_lsm_local<bench_key, bench_val> victim;
    auto no_spill = [](block<bench_key, bench_val> *, std::uint32_t) {};
    for (std::uint32_t i = 0; i < n; ++i)
        victim.insert(i, 0, 0, dist_lsm_local<bench_key, bench_val>::unbounded,
                      no_lazy{}, no_spill);
    for (auto _ : state) {
        dist_lsm_local<bench_key, bench_val> thief;
        benchmark::DoNotOptimize(
            thief.spy_from(victim, dist_lsm_local<bench_key, bench_val>::unbounded));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_spy)->Arg(256)->Arg(4096);

// Shared-LSM delete path: find_min plus take on ~10^5 items, refilled one
// 1024-item block at a time (refills untimed).  Takes leave dead entries
// behind, so find_min keeps consolidating and updating its pivots —
// the cost a find_min that never takes does not see.
void BM_shared_lsm_take_min(benchmark::State &state) {
    constexpr std::uint32_t block_items = 1024;
    constexpr std::uint32_t prefill_blocks = 98;
    const std::uint32_t pow =
        block<bench_key, bench_val>::level_for(block_items);
    item_pool<bench_key, bench_val> pool;
    shared_lsm<bench_key, bench_val> s{
        static_cast<std::size_t>(state.range(0))};
    block<bench_key, bench_val> src{pow};
    xoroshiro128 rng{13};
    std::vector<bench_key> keys(block_items);
    auto refill = [&] {
        for (auto &k : keys)
            k = static_cast<bench_key>(rng());
        std::sort(keys.rbegin(), keys.rend());
        src.reuse_begin(pow);
        for (bench_key k : keys)
            src.append(pool.allocate(k, 0));
        src.seal();
        s.insert(&src, src.filled());
    };
    for (std::uint32_t i = 0; i < prefill_blocks; ++i)
        refill();
    const std::uint32_t tid = thread_index();
    std::uint32_t taken = 0;
    for (auto _ : state) {
        item_ref<bench_key, bench_val> ref;
        do {
            ref = s.find_min(tid);
        } while (!ref.take());
        benchmark::DoNotOptimize(ref.key);
        if (++taken == block_items) {
            state.PauseTiming();
            refill();
            taken = 0;
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_shared_lsm_take_min)->Arg(256)->Arg(4096);

// Shared-LSM local ordering: the same find_min plus take, but the caller
// owns only every fourth of the ~10^5 entries (keys dealt round-robin over
// four owner slots).  find_min serves the caller's own smallest key when
// it is no larger than the random pick, so this times the own-entry scan
// and its cursors as the caller's own keys drain ahead of the others.
void BM_shared_lsm_own_scan(benchmark::State &state) {
    constexpr std::uint32_t block_items = 1024;
    constexpr std::uint32_t prefill_blocks = 98;
    constexpr std::uint32_t owners = 4;
    const std::uint32_t pow =
        block<bench_key, bench_val>::level_for(block_items);
    const std::uint32_t tid = thread_index();
    std::vector<std::unique_ptr<item_pool<bench_key, bench_val>>> pools;
    for (std::uint32_t o = 0; o < owners; ++o)
        pools.push_back(std::make_unique<item_pool<bench_key, bench_val>>(
            mm::mem_placement{}, (tid + o) % max_registered_threads));
    shared_lsm<bench_key, bench_val> s{
        static_cast<std::size_t>(state.range(0))};
    block<bench_key, bench_val> src{pow};
    xoroshiro128 rng{17};
    std::vector<bench_key> keys(block_items);
    auto refill = [&] {
        for (auto &k : keys)
            k = static_cast<bench_key>(rng());
        std::sort(keys.rbegin(), keys.rend());
        src.reuse_begin(pow);
        for (std::uint32_t i = 0; i < block_items; ++i)
            src.append(pools[i % owners]->allocate(keys[i], 0));
        src.seal();
        s.insert(&src, src.filled());
    };
    for (std::uint32_t i = 0; i < prefill_blocks; ++i)
        refill();
    std::uint32_t taken = 0;
    for (auto _ : state) {
        item_ref<bench_key, bench_val> ref;
        do {
            ref = s.find_min(tid);
        } while (!ref.take());
        benchmark::DoNotOptimize(ref.key);
        if (++taken == block_items) {
            state.PauseTiming();
            refill();
            taken = 0;
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_shared_lsm_own_scan)->Arg(256)->Arg(4096);

// Shared-LSM spills under contention: four threads each publish 1024
// blocks of 257 keys (a DistLSM spill just past level 8) into a shared
// LSM prefilled with ~10^6 entries (~2*10^6 at the end), so carries
// climb into the big levels while other threads keep publishing.
// Reported time is wall time per publish across all four threads
// (k = 256).
void BM_shared_lsm_spill_t4(benchmark::State &state) {
    constexpr std::uint32_t spill_items = 257;
    constexpr std::uint32_t prefill_spills = 3891; // ~10^6 entries
    constexpr std::size_t publishes = 1024;        // per thread
    using shared_t = shared_lsm<bench_key, bench_val>;
    using block_t = block<bench_key, bench_val>;
    using pool_t = item_pool<bench_key, bench_val>;
    static std::unique_ptr<shared_t> s;
    static std::unique_ptr<pool_t> prefill_items;
    const std::uint32_t pow = block_t::level_for(spill_items);
    const std::uint32_t tid = thread_index();
    xoroshiro128 rng{23 + static_cast<std::uint64_t>(state.thread_index())};
    auto fill = [&](block_t &b, pool_t &items) {
        std::vector<bench_key> keys(spill_items);
        for (auto &k : keys)
            k = static_cast<bench_key>(rng());
        std::sort(keys.rbegin(), keys.rend());
        b.reuse_begin(pow);
        for (bench_key k : keys)
            b.append(items.allocate(k, 0));
        b.seal();
    };
    if (state.thread_index() == 0) {
        s = std::make_unique<shared_t>(256);
        prefill_items = std::make_unique<pool_t>(mm::mem_placement{}, tid);
        block_t src{pow};
        for (std::uint32_t i = 0; i < prefill_spills; ++i) {
            fill(src, *prefill_items);
            s->insert(&src, src.filled());
        }
    }
    // Every thread builds its spills before the timed loop, whose start
    // is a barrier across the threads.
    pool_t items{mm::mem_placement{}, tid};
    std::vector<std::unique_ptr<block_t>> spills;
    for (std::size_t i = 0; i < publishes; ++i) {
        spills.push_back(std::make_unique<block_t>(pow));
        fill(*spills.back(), items);
    }
    std::size_t next = 0;
    for (auto _ : state) {
        const block_t &b = *spills[next++ % publishes];
        s->insert(&b, b.filled());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    if (state.thread_index() == 0) {
        s.reset();
        prefill_items.reset();
    }
}
BENCHMARK(BM_shared_lsm_spill_t4)
    ->Threads(4)
    ->Iterations(1024)
    ->UseRealTime();

// Delete-min served from the caller's DistLSM without a shared-LSM draw:
// one insert plus one try_delete_min on a k = 256 k_lsm whose shared LSM
// holds ~10^5 keys in [2^30, 2^31).  local_wins:1 inserts random keys
// below 2^30, so the local minimum beats every shared key and the shared
// find_min is skipped; local_wins:0 inserts increasing keys from 2^31, so
// every delete draws from the shared LSM (whose spills keep it at ~10^5).
void BM_klsm_shared_skip(benchmark::State &state) {
    constexpr std::uint32_t prefill = 100000;
    const bool local_wins = state.range(0) != 0;
    k_lsm<bench_key, bench_val> q{256};
    xoroshiro128 rng{29};
    for (std::uint32_t i = 0; i < prefill; ++i)
        q.insert((1u << 30) | static_cast<bench_key>(rng.bounded(1u << 30)),
                 0);
    bench_key next = 1u << 31;
    bench_key k;
    bench_val v;
    for (auto _ : state) {
        const bench_key key =
            local_wins ? static_cast<bench_key>(rng.bounded(1u << 30))
                       : next++;
        q.insert(key, 0);
        benchmark::DoNotOptimize(q.try_delete_min(k, v));
        benchmark::DoNotOptimize(k);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_klsm_shared_skip)->ArgName("local_wins")->Arg(1)->Arg(0);

// Single-thread cost of the full k-LSM vs a plain binary heap — the
// paper's intro comparison (Section 6.1: "the performance of the DLSM is
// close to the binary heap ... k = 0 is significantly slower").
template <typename Q>
void run_pq_churn(benchmark::State &state, Q &q) {
    xoroshiro128 rng{11};
    bench_key k;
    bench_val v;
    // Warm with 4096 elements so deletes hit a populated structure.
    for (int i = 0; i < 4096; ++i)
        q.insert(static_cast<bench_key>(rng()), 0);
    for (auto _ : state) {
        q.insert(static_cast<bench_key>(rng()), 0);
        benchmark::DoNotOptimize(q.try_delete_min(k, v));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 2);
}

void BM_single_thread_binary_heap(benchmark::State &state) {
    struct wrap {
        dary_heap<bench_key, bench_val, 2> h;
        void insert(bench_key k, bench_val v) { h.insert(k, v); }
        bool try_delete_min(bench_key &k, bench_val &v) {
            return h.try_delete_min(k, v);
        }
    } q;
    run_pq_churn(state, q);
}
BENCHMARK(BM_single_thread_binary_heap);

void BM_single_thread_dlsm(benchmark::State &state) {
    dist_pq<bench_key, bench_val> q;
    run_pq_churn(state, q);
}
BENCHMARK(BM_single_thread_dlsm);

void BM_single_thread_klsm(benchmark::State &state) {
    k_lsm<bench_key, bench_val> q{static_cast<std::size_t>(state.range(0))};
    run_pq_churn(state, q);
}
BENCHMARK(BM_single_thread_klsm)->Arg(0)->Arg(4)->Arg(256)->Arg(4096);

} // namespace

BENCHMARK_MAIN();
