#pragma once

// A background thread that invokes a callback on a fixed period — the
// drive shaft of the metrics sampler (src/trace/) and of the churn
// harness's in-phase sampling, but deliberately generic: it knows
// nothing about queues.
//
// Ticks follow an *absolute* schedule anchored to the start timestamp:
// tick n fires at `start + n * period`.  The previous implementation
// re-armed a relative wait_for after each callback, so every tick
// inherited the scheduling jitter and callback latency of all ticks
// before it — over a long soak an "every 5ms" sampler drifted to
// noticeably longer effective periods, and metrics samples were
// unevenly spaced.  With the absolute schedule, jitter in one tick
// cannot move any later deadline; if a callback overruns whole
// periods, the missed ticks are skipped (no burst catch-up) and the
// schedule stays on the original grid.  The schedule arithmetic lives
// in `tick_schedule`, a pure helper unit-tested with fake clock values
// (tests/util/test_ticker.cpp).
//
// RAII: the thread starts on construction (when a callback is given)
// and is stopped and joined by the destructor, so a harness can scope
// the ticker to its measurement window with a local.  The wait is
// interruptible (condition variable, not a bare sleep): destruction
// returns promptly even with a long interval, instead of blocking a
// sweep's teardown for up to one period per benchmark point.  An empty
// callback constructs a no-op ticker, which keeps call sites
// branch-free.

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "util/timer.hpp"

namespace klsm {

/// Pure absolute-schedule arithmetic: deadlines on the fixed grid
/// `start + n * period`, n >= 1.  Clock-free so drift behavior is
/// testable without sleeping.
class tick_schedule {
public:
    tick_schedule(std::uint64_t start_ns, std::uint64_t period_ns)
        : start_ns_(start_ns), period_ns_(period_ns < 1 ? 1 : period_ns)
    {
    }

    std::uint64_t start_ns() const { return start_ns_; }
    std::uint64_t period_ns() const { return period_ns_; }

    /// Absolute deadline of tick `n` (n >= 1).
    std::uint64_t deadline_ns(std::uint64_t n) const
    {
        return start_ns_ + n * period_ns_;
    }

    /// Index of the first tick whose deadline lies strictly after
    /// `now_ns` — i.e. the next tick to wait for.  A callback that
    /// overran whole periods resumes on the original grid with the
    /// missed ticks skipped, never replayed in a burst.
    std::uint64_t next_index(std::uint64_t now_ns) const
    {
        if (now_ns < start_ns_ + period_ns_)
            return 1;
        return (now_ns - start_ns_) / period_ns_ + 1;
    }

private:
    std::uint64_t start_ns_;
    std::uint64_t period_ns_;
};

class periodic_ticker {
public:
    periodic_ticker() = default;

    /// Start calling `fn` every `interval_s` seconds until destruction.
    /// An empty `fn` (or a non-positive interval) starts nothing.
    periodic_ticker(std::function<void()> fn, double interval_s) {
        if (!fn || !(interval_s > 0))
            return;
        thread_ = std::thread([this, fn = std::move(fn), interval_s] {
            const auto period_ns = static_cast<std::uint64_t>(
                std::llround(interval_s * 1e9));
            tick_schedule sched(now_ns(), period_ns);
            std::uint64_t n = 1;
            std::unique_lock<std::mutex> lock(mtx_);
            for (;;) {
                const std::uint64_t deadline = sched.deadline_ns(n);
                std::uint64_t now = now_ns();
                while (now < deadline) {
                    if (cv_.wait_for(
                            lock,
                            std::chrono::nanoseconds(deadline - now),
                            [this] { return stop_; }))
                        return;
                    now = now_ns();
                }
                if (stop_)
                    return;
                // One tick, without holding the lock (the callback
                // may be slow).
                lock.unlock();
                fn();
                lock.lock();
                if (stop_)
                    return;
                n = sched.next_index(now_ns());
            }
        });
    }

    periodic_ticker(const periodic_ticker &) = delete;
    periodic_ticker &operator=(const periodic_ticker &) = delete;

    ~periodic_ticker() {
        {
            std::lock_guard<std::mutex> g(mtx_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

private:
    std::mutex mtx_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace klsm
