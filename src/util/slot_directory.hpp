#pragma once

// Directory of thread slots that have actually touched a queue instance.
//
// Queues keep per-thread state in arrays indexed by the dense thread id
// (util/thread_id.hpp).  Spying must pick *victims* among slots that may
// hold items; picking uniformly over all possible slots would waste most
// attempts in processes that also run other (non-queue) threads.  Each
// slot registers itself on first use; registration is lock-free and
// idempotent.

#include <atomic>
#include <cstdint>

#include "util/rng.hpp"
#include "util/thread_id.hpp"

namespace klsm {

class slot_directory {
public:
    /// Register the calling thread's slot (idempotent, lock-free).
    std::uint32_t register_self() {
        const std::uint32_t slot = thread_index();
        if (!registered_[slot].load(std::memory_order_relaxed)) {
            if (!registered_[slot].exchange(true,
                                            std::memory_order_acq_rel)) {
                const std::uint32_t pos =
                    count_.fetch_add(1, std::memory_order_acq_rel);
                slots_[pos].store(slot, std::memory_order_release);
            }
        }
        return slot;
    }

    /// Number of registered slots.
    std::uint32_t size() const {
        return count_.load(std::memory_order_acquire);
    }

    /// A uniformly random registered slot, excluding `self` when more
    /// than one slot is registered; falls back to a deterministic scan so
    /// an existing victim is always found.  Returns
    /// max_registered_threads iff no slot is registered at all.
    std::uint32_t random_victim(std::uint32_t self) const {
        const std::uint32_t n = size();
        if (n == 0)
            return max_registered_threads;
        for (int attempt = 0; attempt < 4; ++attempt) {
            const std::uint32_t slot = slots_[thread_rng().bounded(n)].load(
                std::memory_order_acquire);
            if (slot != self || n == 1)
                return slot;
        }
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t slot =
                slots_[i].load(std::memory_order_acquire);
            if (slot != self)
                return slot;
        }
        return self; // only self is registered
    }

    /// Try `f(victim)` on a random registered slot other than `self`
    /// (the paper's spy), then once on every other one, until it returns
    /// true.  A false return means `f` failed on every registered slot
    /// but `self`.
    template <typename F>
    bool any_victim(std::uint32_t self, F &&f) const {
        const std::uint32_t first = random_victim(self);
        if (first < max_registered_threads && first != self && f(first))
            return true;
        const std::uint32_t n = size();
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t slot = at(i);
            if (slot != self && slot != first && f(slot))
                return true;
        }
        return false;
    }

    /// Registered slot by dense position (pos < size()).
    std::uint32_t at(std::uint32_t pos) const {
        return slots_[pos].load(std::memory_order_acquire);
    }

    /// Visit every registered slot.
    template <typename F>
    void for_each(F &&f) const {
        const std::uint32_t n = size();
        for (std::uint32_t i = 0; i < n; ++i)
            f(slots_[i].load(std::memory_order_acquire));
    }

private:
    std::atomic<std::uint32_t> count_{0};
    std::atomic<bool> registered_[max_registered_threads] = {};
    std::atomic<std::uint32_t> slots_[max_registered_threads] = {};
};

} // namespace klsm
