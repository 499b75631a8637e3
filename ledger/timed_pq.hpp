#pragma once

// timed_pq: the ledger's decorator around the queue under test.
//
// It satisfies the pq_concept.hpp concepts (relaxed_priority_queue,
// handle_pq, and pool_backed when the wrapped queue is), so every
// harness in src/ runs on it unchanged.
//
// Always on, traced or not: per-thread counts of inserts, deletes and
// failed deletes, plus an order-independent hash (a sum of mixed
// key/value pairs) of everything that went in and came out.  After a job
// the driver drains the queue and checks conservation -- nothing lost,
// duplicated or corrupted -- without a sequential mirror.  The cost is a
// thread-slot lookup and a few adds per call, the same on every commit.
//
// After start_timing() (traced runs only): every queue and handle call is
// stamped with steady_clock into the calling thread's HDR histograms
// (src/stats/), which give exact busy sums and percentiles to ~3%, and
// every 64th call is kept in memory as a span for the Chrome-trace export.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "klsm/pq_concept.hpp"
#include "stats/latency_histogram.hpp"
#include "util/align.hpp"
#include "util/thread_id.hpp"
#include "util/timer.hpp"

namespace ledger {

/// The call kinds the decorator distinguishes.
enum class op : unsigned { insert, delete_min, failed_delete, flush };
inline constexpr unsigned op_kinds = 4;

inline const char *op_name(op o) {
    static const char *const names[op_kinds] = {"insert", "delete_min",
                                                "failed_delete", "flush"};
    return names[static_cast<unsigned>(o)];
}

/// Multiset hash term of one key/value pair (splitmix64's finalizer).
inline std::uint64_t pair_hash(std::uint64_t key, std::uint64_t value) {
    std::uint64_t z = key * 0x9e3779b97f4a7c15ULL ^ (value + 0x632be59bd9b4e019ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// What the decorator counted, summed over all thread slots.
struct op_totals {
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t failed_deletes = 0;
    std::uint64_t hash_in = 0;  ///< sum of pair_hash over inserts
    std::uint64_t hash_out = 0; ///< sum of pair_hash over deletes
};

/// Result of draining a quiescent queue against the decorator's counts.
struct conservation {
    std::uint64_t expected = 0; ///< inserts - deletes
    std::uint64_t drained = 0;
    bool hash_ok = false;
    bool ok() const { return hash_ok && expected == drained; }
    /// Items lost or duplicated; 1 when only the hash disagrees.
    std::uint64_t error_items() const {
        if (expected != drained)
            return expected > drained ? expected - drained
                                      : drained - expected;
        return hash_ok ? 0 : 1;
    }
};

template <klsm::relaxed_priority_queue PQ>
class timed_pq {
public:
    using key_type = typename PQ::key_type;
    using value_type = typename PQ::value_type;

    /// One sampled call, kept for the Chrome-trace export.
    struct span_rec {
        std::uint64_t start_ns;
        std::uint64_t dur_ns;
        op kind;
    };
    static constexpr std::uint64_t span_every = 64;
    static constexpr std::size_t span_cap_per_slot = 1u << 14;

    explicit timed_pq(PQ &q) : q_(&q) {}

    timed_pq(const timed_pq &) = delete;
    timed_pq &operator=(const timed_pq &) = delete;

    /// Stamp every call from now on.  Call while no other thread uses
    /// the queue (before the job's workers start), so that set-up calls
    /// stay out of the histograms.
    void start_timing() {
        times_ = std::make_unique<slot_times[]>(klsm::max_registered_threads);
        timed_ = true;
    }

    void insert(const key_type &key, const value_type &value) {
        do_insert(*q_, key, value);
    }
    bool try_delete_min(key_type &key, value_type &value) {
        return do_delete(*q_, key, value);
    }

    class handle {
    public:
        using key_type = typename PQ::key_type;
        using value_type = typename PQ::value_type;

        explicit handle(timed_pq &owner)
            : owner_(&owner), inner_(klsm::pq_handle(*owner.q_)) {}

        void insert(const key_type &key, const value_type &value) {
            owner_->do_insert(inner_, key, value);
        }
        bool try_delete_min(key_type &key, value_type &value) {
            return owner_->do_delete(inner_, key, value);
        }
        void flush() { owner_->do_flush(inner_); }

    private:
        timed_pq *owner_;
        decltype(klsm::pq_handle(std::declval<PQ &>())) inner_;
    };

    handle get_handle() { return handle(*this); }

    auto memory_stats(bool query_residency = false) const
        requires klsm::pool_backed<PQ>
    {
        return q_->memory_stats(query_residency);
    }
    std::size_t quiescent_shrink()
        requires klsm::pool_backed<PQ>
    {
        return q_->quiescent_shrink();
    }

    // ---- results (read after the workers have joined) -------------------

    op_totals totals() const {
        op_totals t;
        for (const slot_counts &s : counts_) {
            t.inserts += s.n[0].load(std::memory_order_relaxed);
            t.deletes += s.n[1].load(std::memory_order_relaxed);
            t.failed_deletes += s.n[2].load(std::memory_order_relaxed);
            t.hash_in += s.hash_in.load(std::memory_order_relaxed);
            t.hash_out += s.hash_out.load(std::memory_order_relaxed);
        }
        return t;
    }

    /// Pop every remaining item from the wrapped queue (single-threaded,
    /// queue quiescent) and compare against the counts.
    conservation drain_and_check() {
        const op_totals t = totals();
        conservation c;
        c.expected = t.inserts - t.deletes;
        std::uint64_t hash = 0;
        key_type key;
        value_type value;
        auto h = klsm::pq_handle(*q_);
        while (h.try_delete_min(key, value)) {
            ++c.drained;
            hash += pair_hash(static_cast<std::uint64_t>(key),
                              static_cast<std::uint64_t>(value));
        }
        c.hash_ok = hash == t.hash_in - t.hash_out;
        return c;
    }

    bool timed() const { return timed_; }

    /// Merged latency histogram of successful calls of kind `o`
    /// (insert or delete_min); empty in untraced runs.
    klsm::stats::latency_histogram merged(op o) const {
        klsm::stats::latency_histogram out;
        if (timed_)
            for (std::uint32_t s = 0; s < klsm::max_registered_threads; ++s)
                out.merge(times_[s].hist[static_cast<unsigned>(o)]);
        return out;
    }

    /// Nanoseconds spent inside queue and handle calls, all threads.
    std::uint64_t busy_ns() const {
        std::uint64_t total = 0;
        if (timed_)
            for (std::uint32_t s = 0; s < klsm::max_registered_threads; ++s)
                total += times_[s].busy_ns;
        return total;
    }

    /// The sampled spans as Chrome-trace JSON (chrome://tracing,
    /// ui.perfetto.dev); one track per thread slot.
    void write_chrome_trace(std::ostream &os) const {
        std::uint64_t base = ~std::uint64_t{0};
        for (std::uint32_t s = 0; timed_ && s < klsm::max_registered_threads;
             ++s)
            for (const span_rec &r : times_[s].spans)
                base = std::min(base, r.start_ns);
        os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        bool first = true;
        for (std::uint32_t s = 0; timed_ && s < klsm::max_registered_threads;
             ++s) {
            for (const span_rec &r : times_[s].spans) {
                os << (first ? "" : ",") << "{\"name\":\"" << op_name(r.kind)
                   << "\",\"cat\":\"k_lsm\",\"ph\":\"X\",\"pid\":1,\"tid\":"
                   << s << ",\"ts\":"
                   << static_cast<double>(r.start_ns - base) * 1e-3
                   << ",\"dur\":" << static_cast<double>(r.dur_ns) * 1e-3
                   << '}';
                first = false;
            }
        }
        os << "]}\n";
    }

private:
    /// Owner-written counters (relaxed load + store, no RMW), padded so
    /// two threads never share a line.
    struct alignas(klsm::cache_line_size) slot_counts {
        std::atomic<std::uint64_t> n[3] = {};
        std::atomic<std::uint64_t> hash_in{0};
        std::atomic<std::uint64_t> hash_out{0};
    };

    struct alignas(klsm::cache_line_size) slot_times {
        klsm::stats::latency_histogram hist[2];
        std::uint64_t busy_ns = 0;
        std::uint64_t calls = 0;
        std::vector<span_rec> spans;
    };

    static void bump(std::atomic<std::uint64_t> &c, std::uint64_t by) {
        c.store(c.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
    }

    void record(std::uint32_t slot, op o, std::uint64_t t0) {
        const std::uint64_t dur = klsm::now_ns() - t0;
        slot_times &st = times_[slot];
        st.busy_ns += dur;
        if (o == op::insert || o == op::delete_min)
            st.hist[static_cast<unsigned>(o)].record(dur);
        if (++st.calls % span_every == 0 &&
            st.spans.size() < span_cap_per_slot)
            st.spans.push_back({t0, dur, o});
    }

    template <typename Target>
    void do_insert(Target &target, const key_type &key,
                   const value_type &value) {
        const std::uint32_t slot = klsm::thread_index();
        const std::uint64_t t0 = timed_ ? klsm::now_ns() : 0;
        target.insert(key, value);
        if (timed_)
            record(slot, op::insert, t0);
        slot_counts &c = counts_[slot];
        bump(c.n[0], 1);
        bump(c.hash_in, pair_hash(static_cast<std::uint64_t>(key),
                                  static_cast<std::uint64_t>(value)));
    }

    template <typename Target>
    bool do_delete(Target &target, key_type &key, value_type &value) {
        const std::uint32_t slot = klsm::thread_index();
        const std::uint64_t t0 = timed_ ? klsm::now_ns() : 0;
        const bool ok = target.try_delete_min(key, value);
        if (timed_)
            record(slot, ok ? op::delete_min : op::failed_delete, t0);
        slot_counts &c = counts_[slot];
        if (!ok) {
            bump(c.n[2], 1);
            return false;
        }
        bump(c.n[1], 1);
        bump(c.hash_out, pair_hash(static_cast<std::uint64_t>(key),
                                   static_cast<std::uint64_t>(value)));
        return true;
    }

    template <typename Target>
    void do_flush(Target &target) {
        const std::uint64_t t0 = timed_ ? klsm::now_ns() : 0;
        target.flush();
        if (timed_)
            record(klsm::thread_index(), op::flush, t0);
    }

    PQ *q_;
    bool timed_ = false;
    slot_counts counts_[klsm::max_registered_threads];
    std::unique_ptr<slot_times[]> times_;
};

} // namespace ledger
