#pragma once

// Capability concepts — the formal vocabulary for what each priority
// queue in this library can do, replacing the ad-hoc `if constexpr`
// member-detection that used to be scattered through klsm_bench and
// the memory/reclaim plumbing.
//
//   relaxed_priority_queue — the paper's external interface (Section 4):
//       insert always succeeds; try_delete_min returns a flag and may
//       fail spuriously on non-empty queues as long as a key is
//       eventually returned given enough attempts.
//   handle_pq            — exposes per-thread operation handles
//       (queue.get_handle() -> h.insert / h.try_delete_min / h.flush).
//       Handles may buffer: an insert is durable immediately but only
//       guaranteed *visible* to other threads after flush() (or handle
//       destruction, which flushes); a delete may pop an item it then
//       holds back (the k-LSM handle's carry slot, the MultiQueue's
//       delete buffer), which flush() returns to the queue.  Structures
//       without native handles are adapted by `passthrough_handle`
//       below, so harness loops have exactly ONE code path.
//   dynamic_buffering    — handles hide up to buffer_total() items each,
//       a per-thread term that rank bounds charge (harness/quality.hpp).
//   monitorable          — accepts a contention_monitor (set_monitor)
//       that its hot paths count publishes, hits and spies into.
//   pool_backed          — owns mm/ pools: exposes allocation telemetry
//       (memory_stats) and quiescent page release (quiescent_shrink).

#include <concepts>
#include <cstddef>

namespace klsm {

namespace adapt {
class contention_monitor;
} // namespace adapt

template <typename PQ>
concept relaxed_priority_queue = requires(PQ q, typename PQ::key_type k,
                                          typename PQ::value_type v) {
    q.insert(k, v);
    { q.try_delete_min(k, v) } -> std::same_as<bool>;
};

/// What a per-thread operation handle must offer.  A handle is owned by
/// exactly one thread and is not thread-safe; flush() publishes every
/// buffered effect (pending inserts become visible, popped-but-unserved
/// items are returned to the queue).
template <typename H, typename PQ>
concept operation_handle = requires(H h, typename PQ::key_type k,
                                    typename PQ::value_type v) {
    h.insert(k, v);
    { h.try_delete_min(k, v) } -> std::same_as<bool>;
    h.flush();
};

template <typename PQ>
concept handle_pq = relaxed_priority_queue<PQ> && requires(PQ q) {
    { q.get_handle() } -> operation_handle<PQ>;
};

template <typename PQ>
concept dynamic_buffering = requires(const PQ cq) {
    { cq.buffer_total() } -> std::convertible_to<std::size_t>;
};

template <typename PQ>
concept pool_backed = requires(PQ q, const PQ cq) {
    cq.memory_stats();
    { q.quiescent_shrink() } -> std::convertible_to<std::size_t>;
};

template <typename PQ>
concept monitorable = requires(PQ &q, adapt::contention_monitor *m) {
    q.set_monitor(m);
};

/// Zero-cost handle adaptor for structures without native handles: every
/// operation forwards directly, flush is a no-op (nothing is ever
/// buffered).  Lets `pq_handle` give harness loops one code path.
template <typename PQ>
class passthrough_handle {
public:
    using key_type = typename PQ::key_type;
    using value_type = typename PQ::value_type;

    explicit passthrough_handle(PQ &q) : q_(&q) {}

    void insert(const key_type &key, const value_type &value) {
        q_->insert(key, value);
    }
    bool try_delete_min(key_type &key, value_type &value) {
        return q_->try_delete_min(key, value);
    }
    void flush() {}

private:
    PQ *q_;
};

/// The one way harnesses obtain a per-thread handle: the queue's native
/// handle when it has one, the pass-through adaptor otherwise.  Call it
/// on the owning thread; the handle must not outlive the queue.
template <relaxed_priority_queue PQ>
auto pq_handle(PQ &q) {
    if constexpr (handle_pq<PQ>)
        return q.get_handle();
    else
        return passthrough_handle<PQ>(q);
}

} // namespace klsm
