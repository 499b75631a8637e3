// The k-LSM ledger driver: one repetition of one workload, or the layer
// micro-benchmarks, printed as one JSON object on stdout.  run.py in this
// directory starts one process per repetition, so that peak RSS
// (wait4's ru_maxrss) belongs to exactly one repetition, and aggregates.
//
// Every workload runs the k-LSM with T = 4 worker threads and k = 256.
// The seed fixes every input: prefill keys, each worker's op stream, the
// graph, the event population.  A repetition has three parts:
//
//   setup  (setup_s) -- queue construction and input generation;
//   job    (job_s)   -- a fixed amount of work, the same on every commit;
//   check  (untimed) -- drain the queue and compare against timed_pq's
//                       counts, plus the workload's own answer check.
//
// With --traced, timed_pq also stamps every queue call, the contention
// monitor and the pool counters are read, and the record carries the
// per-layer numbers.  `--workload layers` times single layers in
// isolation instead.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adapt/contention_monitor.hpp"
#include "graph/dijkstra.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/parallel_sssp.hpp"
#include "harness/churn.hpp"
#include "harness/workload.hpp"
#include "klsm/block.hpp"
#include "klsm/dist_lsm.hpp"
#include "klsm/k_lsm.hpp"
#include "klsm/shared_lsm.hpp"
#include "mm/item_pool.hpp"
#include "timed_pq.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads/des.hpp"

namespace {

using namespace klsm;
using ledger::timed_pq;

constexpr unsigned workers = 4;
constexpr std::size_t relaxation_k = 256;
constexpr double des_violation_budget = 0.15;
constexpr std::uint64_t mix_chunk = 4096;

/// Input sizes.  The full shapes follow Gruber/Traeff/Wimmer
/// (arXiv 1603.05047): 10^6 prefilled uniform 32-bit keys; --smoke
/// shrinks everything so a schema check runs in seconds.
struct shapes {
    std::size_t mix_prefill = 1000000;
    std::uint64_t mix_ops = 16000000;
    std::uint64_t des_events = 10000000;
    // Sparse, average degree 10.  At 10^6 nodes the k-LSM's shared block
    // pools alone reach ~1.5 GiB, so the graph has half that many.
    std::uint32_t sssp_nodes = 500000;
    double sssp_edge_prob = 0.00002;
    // The surge phase adds ~0.7 x 4 x ops items and the drain phase takes
    // ~0.8 x 4 x ops, so the prefill keeps the queue from running empty:
    // whether it did would otherwise depend on the seed.
    std::uint64_t churn_ops_per_phase = 250000;
    std::uint64_t churn_prefill = 200000;
    unsigned layer_scale = 1; ///< divides the layer benches' sizes
};

shapes smoke_shapes() {
    shapes s;
    s.mix_prefill = 20000;
    s.mix_ops = 80000;
    s.des_events = 100000;
    s.sssp_nodes = 20000;
    s.sssp_edge_prob = 0.0005;
    s.churn_ops_per_phase = 5000;
    s.churn_prefill = 5000;
    s.layer_scale = 16;
    return s;
}

/// Independent, reproducible stream `stream` of `seed`.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t s = seed ^ (stream * 0xd1b54a32d192ed03ULL);
    return splitmix64(s);
}

using fields = std::vector<std::pair<std::string, double>>;

struct rep {
    double setup_s = 0;
    double job_s = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::string check = "ok";
    fields detail; ///< human-facing workload numbers
    fields layers; ///< per-layer numbers, traced runs only

    void fail(const std::string &why) {
        if (correct)
            check = why;
        correct = false;
    }
};

/// Spawn `n` threads running body(t, sync); each calls
/// sync.arrive_and_wait() when its untimed preparation is done.  Returns
/// the seconds from the release of the barrier to the last join.
template <typename Body>
double run_parallel(unsigned n, Body &&body) {
    std::barrier<> sync{static_cast<std::ptrdiff_t>(n) + 1};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < n; ++t)
        ts.emplace_back([&, t] { body(t, sync); });
    sync.arrive_and_wait();
    wall_timer timer;
    for (auto &th : ts)
        th.join();
    return timer.elapsed_s();
}

/// Uniform 32-bit keys from `workers` threads, as the paper's benchmark
/// prefills; values carry the inserting thread.
template <typename TQ>
void prefill(TQ &tq, std::size_t n, std::uint64_t seed) {
    run_parallel(workers, [&](unsigned t, std::barrier<> &sync) {
        const std::size_t share = n / workers;
        const std::size_t count =
            t + 1 == workers ? n - share * (workers - 1) : share;
        xoroshiro128 rng{stream_seed(seed, t)};
        auto h = tq.get_handle();
        sync.arrive_and_wait();
        for (std::size_t i = 0; i < count; ++i)
            h.insert(static_cast<std::uint32_t>(rng()), t);
        h.flush();
    });
}

struct app_layers {
    double stale_ratio = 0;        ///< graph: stale pops / pops
    double reexpansion_ratio = 0;  ///< graph: extra expansions / nodes
    double violation_fraction = 0; ///< des: out-of-order commits
};

/// Traced-run instrumentation for one k-LSM: the contention monitor is
/// attached and timed_pq starts stamping when the job starts.
template <typename Q>
struct probes {
    probes(Q &q, timed_pq<Q> &tq, bool traced) : q_(q), tq_(tq) {
        if (!traced)
            return;
        q.set_monitor(&monitor);
        tq.start_timing();
    }
    ~probes() { q_.set_monitor(nullptr); }
    probes(const probes &) = delete;
    probes &operator=(const probes &) = delete;

    /// The per-layer numbers of a finished job (call before the drain: it
    /// reads the pools as the job left them).  The application layers
    /// pass their own; a workload without that layer reports 0.
    void collect(rep &r, const app_layers &app = {}) const {
        if (!tq_.timed())
            return;
        const auto ins = tq_.merged(ledger::op::insert);
        const auto del = tq_.merged(ledger::op::delete_min);
        const auto t = tq_.totals();
        const auto c = monitor.totals();
        const auto m = q_.memory_stats(false);
        mm::pool_alloc_snapshot all = m.items;
        all.merge(m.dist_blocks);
        all.merge(m.shared_blocks);
        const double mib = 1024.0 * 1024.0;
        const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        r.layers = {
            {"k_lsm.insert_ns_p50", static_cast<double>(ins.percentile(50))},
            {"k_lsm.insert_ns_p99", static_cast<double>(ins.percentile(99))},
            {"k_lsm.delete_ns_p50", static_cast<double>(del.percentile(50))},
            {"k_lsm.delete_ns_p99", static_cast<double>(del.percentile(99))},
            {"k_lsm.delete_fail_ratio",
             ratio(static_cast<double>(t.failed_deletes),
                   static_cast<double>(t.deletes + t.failed_deletes))},
            {"k_lsm.busy_frac", ratio(static_cast<double>(tq_.busy_ns()),
                                      workers * r.job_s * 1e9)},
            {"k_lsm.shared_hit_ratio", c.shared_fraction()},
            {"shared_lsm.publishes", static_cast<double>(c.publishes)},
            {"shared_lsm.publish_retry_ratio", c.fail_rate()},
            {"dist_lsm.spies", static_cast<double>(c.spies)},
            {"mm.items_mb", static_cast<double>(m.items.bytes) / mib},
            {"mm.dist_blocks_mb", static_cast<double>(m.dist_blocks.bytes) / mib},
            {"mm.shared_blocks_mb",
             static_cast<double>(m.shared_blocks.bytes) / mib},
            {"mm.bytes_per_item",
             ratio(static_cast<double>(all.bytes),
                   static_cast<double>(m.items.fresh_allocs))},
            {"mm.item_reuse_ratio", m.items.reuse_hit_rate()},
            {"graph.stale_ratio", app.stale_ratio},
            {"graph.reexpansion_ratio", app.reexpansion_ratio},
            {"des.violation_fraction", app.violation_fraction},
        };
    }

    adapt::contention_monitor monitor;

private:
    Q &q_;
    timed_pq<Q> &tq_;
};

/// Drain the queue; every item lost or duplicated counts as failed.
template <typename Q>
void check_conservation(rep &r, timed_pq<Q> &tq) {
    const ledger::conservation c = tq.drain_and_check();
    r.detail.push_back({"drained", static_cast<double>(c.drained)});
    r.failed += c.error_items();
    if (!c.ok())
        r.fail("conservation: expected " + std::to_string(c.expected) +
               " items, drained " + std::to_string(c.drained) +
               (c.hash_ok ? "" : ", key hash differs"));
}

void write_trace(const std::string &path, const auto &tq) {
    if (path.empty() || !tq.timed())
        return;
    std::ofstream out(path);
    tq.write_chrome_trace(out);
}

// ---- workloads --------------------------------------------------------

/// mix50: the paper's Figure 3 hold model -- a 50/50 insert/delete-min
/// mix of uniform 32-bit keys on a queue prefilled with 10^6 of them.
rep run_mix50(const shapes &sh, std::uint64_t seed, bool traced,
              const std::string &trace_out) {
    rep r;
    wall_timer setup;
    k_lsm<std::uint32_t, std::uint32_t> q{relaxation_k};
    timed_pq tq{q};
    prefill(tq, sh.mix_prefill, seed);
    r.setup_s = setup.elapsed_s();

    probes pr{q, tq, traced};
    // Workers claim fixed chunks of the op stream, each seeded by its
    // index: the ops are the same whichever thread runs them, and a
    // worker the host descheduled does not hold the others up at the end.
    const std::uint64_t chunks = sh.mix_ops / mix_chunk;
    std::atomic<std::uint64_t> next{0};
    r.job_s = run_parallel(workers, [&](unsigned, std::barrier<> &sync) {
        const op_mix mix{50};
        auto h = tq.get_handle();
        std::uint32_t key = 0, value = 0;
        sync.arrive_and_wait();
        for (std::uint64_t c;
             (c = next.fetch_add(1, std::memory_order_relaxed)) < chunks;) {
            xoroshiro128 rng{stream_seed(seed, 1000 + c)};
            for (std::uint64_t i = 0; i < mix_chunk; ++i) {
                if (mix.is_insert(rng))
                    h.insert(static_cast<std::uint32_t>(rng()),
                             static_cast<std::uint32_t>(c));
                else
                    h.try_delete_min(key, value);
            }
        }
        h.flush();
    });
    r.attempted = chunks * mix_chunk;
    // The queue never holds fewer than ~10^6 keys, so every failed
    // delete-min is a spurious failure.
    r.failed = tq.totals().failed_deletes;
    r.detail = {{"ops_per_s", static_cast<double>(r.attempted) / r.job_s},
                {"failed_deletes", static_cast<double>(r.failed)}};
    pr.collect(r);
    write_trace(trace_out, tq);
    check_conservation(r, tq);
    return r;
}

/// des: PHOLD with a constant, cache-resident population of 8192 events
/// (src/workloads/des.hpp); most deletes come from the shared LSM.
rep run_des(const shapes &sh, std::uint64_t seed, bool traced,
            const std::string &trace_out) {
    rep r;
    wall_timer setup;
    k_lsm<std::uint64_t, std::uint64_t> q{relaxation_k};
    timed_pq tq{q};
    workloads::des_params p;
    p.lps = 256;
    p.population = 8192;
    p.target_events = sh.des_events;
    p.lookahead = 0;
    p.mean_delay = 64;
    p.threads = workers;
    p.seed = seed;
    const double construct_s = setup.elapsed_s();

    probes pr{q, tq, traced};
    wall_timer call;
    const auto res = workloads::run_des(tq, p);
    // run_des seeds the population and spawns its workers before it
    // starts its clock: that part is set-up too.
    r.setup_s = construct_s + (call.elapsed_s() - res.elapsed_s);
    r.job_s = res.elapsed_s;
    r.attempted = res.committed + res.failed_pops;
    r.failed = res.failed_pops;
    r.detail = {{"events_per_s", res.events_per_sec()},
                {"violation_fraction", res.violation_fraction()},
                {"failed_pops", static_cast<double>(res.failed_pops)}};
    if (res.violation_fraction() > des_violation_budget)
        r.fail("violation fraction over the 0.15 budget");
    pr.collect(r, {.violation_fraction = res.violation_fraction()});
    write_trace(trace_out, tq);
    check_conservation(r, tq);
    return r;
}

/// sssp: the paper's Figure 4 application, label-correcting SSSP on a
/// sparse Erdos-Renyi graph, checked against sequential Dijkstra.  The
/// k-LSM runs without its lazy-deletion policy: see README.md, "Known
/// bug".
rep run_sssp(const shapes &sh, std::uint64_t seed, bool traced,
             const std::string &trace_out) {
    rep r;
    wall_timer setup;
    erdos_renyi_params gp;
    gp.nodes = sh.sssp_nodes;
    gp.edge_probability = sh.sssp_edge_prob;
    gp.max_weight = 100000000;
    gp.seed = seed;
    const graph g = make_erdos_renyi(gp);
    sssp_state state{g.num_nodes()};
    k_lsm<std::uint64_t, std::uint32_t> q{relaxation_k};
    timed_pq tq{q};
    r.setup_s = setup.elapsed_s();

    const dijkstra_result ref = dijkstra(g, 0);
    probes pr{q, tq, traced};
    wall_timer job;
    const sssp_stats st = parallel_sssp(tq, g, 0, workers, state);
    r.job_s = job.elapsed_s();

    std::uint64_t mismatches = 0;
    for (std::uint32_t u = 0; u < g.num_nodes(); ++u)
        mismatches += state.dist(u) != ref.dist[u];
    r.attempted = g.num_nodes();
    r.failed = mismatches;
    if (mismatches != 0)
        r.fail(std::to_string(mismatches) +
               " nodes disagree with Dijkstra");
    const double pops = static_cast<double>(st.expansions + st.stale_pops);
    r.detail = {{"arcs", static_cast<double>(g.num_edges())},
                {"expansions", static_cast<double>(st.expansions)},
                {"stale_pops", static_cast<double>(st.stale_pops)},
                {"queue_ops_per_s",
                 (pops + static_cast<double>(tq.totals().inserts)) /
                     r.job_s}};
    pr.collect(r, {.stale_ratio = static_cast<double>(st.stale_pops) / pops,
                   .reexpansion_ratio =
                       static_cast<double>(st.expansions - st.settled) /
                       static_cast<double>(st.settled)});
    write_trace(trace_out, tq);
    check_conservation(r, tq);
    return r;
}

/// churn: the four-phase soak of src/harness/churn.hpp (steady, insert
/// surge, bursty drain, steady) with the full reclamation tier, as
/// klsm_bench runs it -- the pools grow and shrink again.
rep run_churn(const shapes &sh, std::uint64_t seed, bool traced,
              const std::string &trace_out) {
    rep r;
    wall_timer setup;
    mm::mem_placement place;
    place.reclaim.policy = mm::reclaim_policy::full;
    k_lsm<std::uint32_t, std::uint32_t> q{relaxation_k, {}, place};
    timed_pq tq{q};
    churn_params p;
    p.threads = workers;
    p.ops_per_phase = sh.churn_ops_per_phase;
    p.prefill = 0; // done here, so that it counts as set-up
    p.seed = seed;
    {
        xoroshiro128 rng{stream_seed(seed, 200)};
        for (std::uint64_t i = 0; i < sh.churn_prefill; ++i)
            tq.insert(static_cast<std::uint32_t>(rng.bounded(p.key_range)),
                      0);
    }
    r.setup_s = setup.elapsed_s();

    probes pr{q, tq, traced};
    const churn_result res = klsm::run_churn(tq, p);
    r.job_s = res.elapsed_s;
    r.attempted = res.inserts + res.deletes + res.failed_deletes;
    // The prefill keeps the queue non-empty, so a failed delete-min is a
    // spurious failure, as in mix50.
    r.failed = res.failed_deletes;
    r.detail = {{"ops_per_s", static_cast<double>(r.attempted) / r.job_s},
                {"failed_deletes", static_cast<double>(res.failed_deletes)},
                {"shrink_events",
                 static_cast<double>(res.timeline.shrink_events)}};
    pr.collect(r);
    write_trace(trace_out, tq);
    check_conservation(r, tq);
    return r;
}

// ---- layer micro-benchmarks ---------------------------------------------

volatile std::uint64_t g_sink = 0;

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
}

/// `reps` timings of fn(), each divided by `per`, median taken.
template <typename Fn>
double median_ns(unsigned reps, double per, Fn &&fn) {
    std::vector<double> v;
    for (unsigned i = 0; i < reps; ++i) {
        const std::uint64_t t0 = now_ns();
        fn();
        v.push_back(static_cast<double>(now_ns() - t0) / per);
    }
    return median(std::move(v));
}

using kv32 = std::uint32_t;

/// `n` sealed source blocks of 256 alive items each (random keys), as a
/// DistLSM spill would hand them to the shared LSM.
std::vector<std::unique_ptr<block<kv32, kv32>>>
make_spill_blocks(item_pool<kv32, kv32> &items, std::size_t n,
                  xoroshiro128 &rng) {
    std::vector<std::unique_ptr<block<kv32, kv32>>> out;
    std::vector<kv32> keys(256);
    for (std::size_t b = 0; b < n; ++b) {
        auto blk = std::make_unique<block<kv32, kv32>>(8);
        blk->reuse_begin(8);
        for (auto &k : keys)
            k = static_cast<kv32>(rng());
        std::sort(keys.begin(), keys.end(), std::greater<>());
        for (const kv32 k : keys)
            blk->append(items.allocate(k, 0));
        blk->seal();
        out.push_back(std::move(blk));
    }
    return out;
}

/// ns per shared_lsm::find_min on a shared LSM holding `n` items.
double shared_find_min_ns(std::size_t n, xoroshiro128 &rng) {
    item_pool<kv32, kv32> items;
    shared_lsm<kv32, kv32> sh{relaxation_k};
    const auto blocks = make_spill_blocks(items, n / 256, rng);
    for (const auto &b : blocks)
        sh.insert(b.get(), b->filled());
    const std::uint32_t tid = thread_index();
    constexpr std::size_t calls = 1 << 16;
    return median_ns(7, calls, [&] {
        for (std::size_t i = 0; i < calls; ++i)
            g_sink = g_sink + sh.find_min(tid).key;
    });
}

/// ns per shared_lsm::insert of a 256-item block, each of `threads`
/// threads publishing `per_thread` blocks into one fresh shared LSM.
/// Also returns the publish-CAS retry ratio from the contention monitor.
std::pair<double, double> shared_publish_ns(unsigned threads,
                                            std::size_t per_thread,
                                            xoroshiro128 &rng) {
    item_pool<kv32, kv32> items;
    std::vector<std::vector<std::unique_ptr<block<kv32, kv32>>>> src;
    for (unsigned t = 0; t < threads; ++t)
        src.push_back(make_spill_blocks(items, per_thread, rng));
    std::vector<double> ns, retry;
    for (int r = 0; r < 5; ++r) {
        shared_lsm<kv32, kv32> sh{relaxation_k};
        adapt::contention_monitor mon;
        sh.set_monitor(&mon);
        const double s =
            run_parallel(threads, [&](unsigned t, std::barrier<> &sync) {
                sync.arrive_and_wait();
                for (const auto &b : src[t])
                    sh.insert(b.get(), b->filled());
            });
        ns.push_back(s * 1e9 / static_cast<double>(per_thread));
        retry.push_back(mon.totals().fail_rate());
    }
    return {median(ns), median(retry)};
}

fields run_layers(const shapes &sh, std::uint64_t seed) {
    xoroshiro128 rng{stream_seed(seed, 300)};
    const unsigned scale = sh.layer_scale;
    fields out;

    {
        item_pool<kv32, kv32> pool;
        const std::size_t n = (1u << 20) / scale;
        out.push_back({"mm.item_alloc_take_ns", median_ns(7, n, [&] {
                           for (std::size_t i = 0; i < n; ++i)
                               g_sink = g_sink + pool.allocate(
                                   static_cast<kv32>(i), 0).take();
                       })});
    }
    {
        item_pool<kv32, kv32> pool;
        block<kv32, kv32> a{10}, b{10}, dst{11};
        a.reuse_begin(10);
        b.reuse_begin(10);
        for (kv32 i = 1024; i-- > 0;) {
            a.append(pool.allocate(2 * i, 0));
            b.append(pool.allocate(2 * i + 1, 0));
        }
        a.seal();
        b.seal();
        const unsigned merges = 256 / scale;
        out.push_back({"block.merge_ns_per_item",
                       median_ns(7, merges * 2048.0, [&] {
                           for (unsigned m = 0; m < merges; ++m) {
                               dst.reuse_begin(11);
                               dst.merge_from(a, a.filled(), b, b.filled());
                               dst.seal();
                               g_sink = g_sink + dst.filled();
                           }
                       })});
    }
    // The DistLSM benches stay at k items, the size the k-LSM bounds each
    // thread's DistLSM to, so that their costs add up to a k-LSM op.
    double dist_insert = 0, dist_find_min = 0;
    {
        dist_lsm_local<kv32, kv32> d;
        const auto no_spill = [](block<kv32, kv32> *, std::uint32_t) {};
        constexpr std::size_t batch = relaxation_k;
        std::vector<double> v;
        for (unsigned r = 0; r < 1024 / scale; ++r) {
            item_ref<kv32, kv32> ref;
            while (!(ref = d.find_min()).empty())
                ref.take();
            d.consolidate();
            const std::uint64_t t0 = now_ns();
            for (std::size_t i = 0; i < batch; ++i)
                d.insert(static_cast<kv32>(rng()), 0, 0,
                         dist_lsm_local<kv32, kv32>::unbounded, no_lazy{},
                         no_spill);
            v.push_back(static_cast<double>(now_ns() - t0) / batch);
        }
        dist_insert = median(std::move(v));
    }
    {
        dist_lsm_local<kv32, kv32> d;
        const auto no_spill = [](block<kv32, kv32> *, std::uint32_t) {};
        for (std::size_t i = 0; i < relaxation_k; ++i)
            d.insert(static_cast<kv32>(rng()), 0, 0,
                     dist_lsm_local<kv32, kv32>::unbounded, no_lazy{},
                     no_spill);
        constexpr std::size_t calls = 1 << 18;
        dist_find_min = median_ns(7, calls, [&] {
            for (std::size_t i = 0; i < calls; ++i)
                g_sink = g_sink + d.find_min().key;
        });
    }
    out.push_back({"dist_lsm.insert_ns", dist_insert});
    out.push_back({"dist_lsm.find_min_ns", dist_find_min});

    const double shared_8k = shared_find_min_ns(8192, rng);
    out.push_back({"shared_lsm.find_min_ns_8k", shared_8k});
    out.push_back({"shared_lsm.find_min_ns_1m",
                   shared_find_min_ns((1u << 20) / scale, rng)});
    const auto t1 = shared_publish_ns(1, 1024 / scale, rng);
    const auto t4 = shared_publish_ns(workers, 256 / scale, rng);
    out.push_back({"shared_lsm.publish_ns_t1", t1.first});
    out.push_back({"shared_lsm.publish_ns_t4", t4.first});
    out.push_back({"shared_lsm.publish_retry_ratio_t4", t4.second});

    {
        k_lsm<kv32, kv32> q{relaxation_k};
        q.set_buffer_depth(16);
        for (int i = 0; i < 4096; ++i)
            q.insert(static_cast<kv32>(rng()), 0);
        auto h = q.get_handle();
        std::vector<double> v;
        kv32 key = 0, value = 0;
        for (unsigned r = 0; r < 4096 / scale; ++r) {
            const std::uint64_t t0 = now_ns();
            for (int i = 0; i < 16; ++i) // the 16th insert flushes
                h.insert(static_cast<kv32>(rng()), 0);
            v.push_back(static_cast<double>(now_ns() - t0));
            for (int i = 0; i < 16; ++i)
                g_sink = g_sink + h.try_delete_min(key, value);
        }
        out.push_back({"k_lsm.flush16_ns", median(std::move(v))});
    }
    {
        k_lsm<kv32, kv32> q{relaxation_k};
        for (int i = 0; i < 4096; ++i)
            q.insert(static_cast<kv32>(rng()), 0);
        const std::size_t pairs = (1u << 18) / scale;
        kv32 key = 0, value = 0;
        const double per_op = median_ns(7, 2.0 * pairs, [&] {
            for (std::size_t i = 0; i < pairs; ++i) {
                q.insert(static_cast<kv32>(rng()), 0);
                g_sink = g_sink + q.try_delete_min(key, value);
            }
        });
        out.push_back({"k_lsm.single_thread_ns_per_op", per_op});
        // One insert/delete pair costs a DistLSM insert (item allocation
        // included), a DistLSM find_min and a shared find_min; the rest
        // of the k-LSM's per-op time is composition overhead.
        out.push_back({"k_lsm.composition_overhead_ns",
                       per_op - (dist_insert + dist_find_min + shared_8k) / 2});
    }
    return out;
}

// ---- output ---------------------------------------------------------------

std::string num(double v) {
    if (!(v == v) || v > 1e300 || v < -1e300)
        v = 0; // JSON has no NaN or infinity
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_string(const std::string &s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + '"';
}

std::string json_object(const fields &f) {
    std::string out = "{";
    for (std::size_t i = 0; i < f.size(); ++i)
        out += (i ? "," : "") + json_string(f[i].first) + ":" +
               num(f[i].second);
    return out + "}";
}

} // namespace

int main(int argc, char **argv) {
    cli_parser cli("k-LSM ledger: one repetition of one workload as JSON");
    cli.add_flag("workload", "mix50", "mix50, des, sssp, churn or layers");
    cli.add_flag("seed", "1", "input seed");
    cli.add_bool_flag("traced", false,
                      "stamp every queue call and report per-layer numbers");
    cli.add_bool_flag("smoke", false, "tiny shapes for a schema check");
    cli.add_flag("trace-out", "",
                 "traced runs: write the sampled spans as Chrome-trace "
                 "JSON to this file");
    cli.parse(argc, argv);
    const std::string workload = cli.get("workload");
    const std::uint64_t seed = cli.get_uint64("seed");
    const bool traced = cli.get_bool("traced");
    const std::string trace_out = cli.get("trace-out");
    const shapes sh = cli.get_bool("smoke") ? smoke_shapes() : shapes{};

    if (workload == "layers") {
        std::cout << "{\"workload\":\"layers\",\"layers\":"
                  << json_object(run_layers(sh, seed)) << "}\n";
        return 0;
    }
    rep r;
    if (workload == "mix50")
        r = run_mix50(sh, seed, traced, trace_out);
    else if (workload == "des")
        r = run_des(sh, seed, traced, trace_out);
    else if (workload == "sssp")
        r = run_sssp(sh, seed, traced, trace_out);
    else if (workload == "churn")
        r = run_churn(sh, seed, traced, trace_out);
    else {
        std::cerr << "unknown workload: " << workload
                  << " (expected mix50, des, sssp, churn or layers)\n";
        return 2;
    }
    std::cout << "{\"workload\":" << json_string(workload)
              << ",\"setup_s\":" << num(r.setup_s)
              << ",\"job_s\":" << num(r.job_s)
              << ",\"attempted\":" << r.attempted
              << ",\"failed\":" << r.failed
              << ",\"correct\":" << (r.correct ? "true" : "false")
              << ",\"check\":" << json_string(r.check)
              << ",\"detail\":" << json_object(r.detail)
              << ",\"layers\":" << json_object(r.layers) << "}\n";
    return 0;
}
