#include "mm/epoch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace klsm {
namespace {

struct tracked {
    static std::atomic<int> live;
    tracked() { live.fetch_add(1); }
    ~tracked() { live.fetch_sub(1); }
};
std::atomic<int> tracked::live{0};

TEST(Epoch, RetiredNodesFreeEventually) {
    {
        epoch_manager mgr;
        {
            epoch_manager::guard g(mgr);
            for (int i = 0; i < 300; ++i)
                mgr.retire(new tracked);
        }
        // Unpinned: a few reclaim attempts must free everything retired
        // at least two epochs ago.
        for (int i = 0; i < 4; ++i) {
            epoch_manager::guard g(mgr);
            mgr.try_reclaim();
        }
    } // destructor frees the rest
    EXPECT_EQ(tracked::live.load(), 0);
}

TEST(Epoch, PinPreventsReclamation) {
    epoch_manager mgr;
    std::atomic<bool> pinned{false}, release{false};
    std::thread reader([&] {
        epoch_manager::guard g(mgr);
        pinned.store(true);
        while (!release.load())
            std::this_thread::yield();
    });
    while (!pinned.load())
        std::this_thread::yield();

    {
        epoch_manager::guard g(mgr);
        for (int i = 0; i < 300; ++i)
            mgr.retire(new tracked);
        // The reader is pinned in the epoch in which we retired; nothing
        // retired in this epoch may be freed yet.
        mgr.try_reclaim();
        mgr.try_reclaim();
    }
    EXPECT_EQ(static_cast<std::uint64_t>(tracked::live.load()),
              mgr.pending_count());
    EXPECT_GT(tracked::live.load(), 0);

    release.store(true);
    reader.join();
    for (int i = 0; i < 4; ++i) {
        epoch_manager::guard g(mgr);
        mgr.try_reclaim();
    }
    EXPECT_EQ(tracked::live.load(), 0);
}

TEST(Epoch, NestedGuardsCount) {
    epoch_manager mgr;
    {
        epoch_manager::guard outer(mgr);
        {
            epoch_manager::guard inner(mgr);
            mgr.retire(new tracked);
        }
        // Still pinned by the outer guard: the node must survive.
        mgr.try_reclaim();
        EXPECT_EQ(tracked::live.load(), 1);
    }
}

namespace churn {
std::atomic<long> node_live{0};
struct node {
    std::atomic<int> canary{12345};
    node() { node_live.fetch_add(1); }
    ~node() { node_live.fetch_sub(1); }
};
} // namespace churn

TEST(Epoch, ConcurrentChurnNeverUsesAfterFree) {
    using churn::node;
    epoch_manager mgr;
    std::atomic<node *> shared_node{new node};
    std::atomic<bool> stop{false};
    std::atomic<long> checks{0};

    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                epoch_manager::guard g(mgr);
                node *n = shared_node.load(std::memory_order_acquire);
                // If the manager ever freed a node while readable, the
                // canary (poisoned in the deleter) would differ.
                ASSERT_EQ(n->canary.load(std::memory_order_relaxed), 12345);
                checks.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    std::thread writer([&] {
        // Wait for a first reader check: on a loaded machine the writer
        // could otherwise finish every exchange before any reader runs.
        // The initial node is never retired before this loop, so that
        // first check always passes.
        while (checks.load(std::memory_order_relaxed) == 0)
            std::this_thread::yield();
        for (int i = 0; i < 3000; ++i) {
            epoch_manager::guard g(mgr);
            node *fresh = new node;
            node *old = shared_node.exchange(fresh,
                                             std::memory_order_acq_rel);
            // The deleter poisons the canary just before freeing, so a
            // reader that could still reach a freed node would observe
            // the poison (and sanitizers would flag the access itself).
            mgr.retire_raw(old, [](void *p) {
                static_cast<node *>(p)->canary.store(-1,
                                                     std::memory_order_relaxed);
                delete static_cast<node *>(p);
            });
        }
        stop.store(true);
    });
    writer.join();
    for (auto &t : readers)
        t.join();
    EXPECT_GT(checks.load(), 0);
    // Accounting: every retired node is either freed already or still in
    // limbo (limbo of exited threads drains at manager destruction).
    EXPECT_EQ(mgr.freed_count() + mgr.pending_count(), 3000u);
    delete shared_node.load();
}

TEST(Epoch, DestructorDrainsExitedThreadsLimbo) {
    using churn::node;
    churn::node_live.store(0);
    {
        epoch_manager mgr;
        std::thread worker([&] {
            epoch_manager::guard g(mgr);
            for (int i = 0; i < 50; ++i)
                mgr.retire(new node);
        });
        worker.join();
        EXPECT_EQ(churn::node_live.load(), 50);
    }
    EXPECT_EQ(churn::node_live.load(), 0)
        << "destructor must free limbo of exited threads";
}

TEST(Epoch, AdvancementSurvivesThreadExit) {
    // A thread that pins, retires, and exits must never stall epoch
    // advancement: its pinned word returns to 0 at unpin, and the
    // advance scan skips unpinned slots.
    epoch_manager mgr;
    std::thread worker([&] {
        epoch_manager::guard g(mgr);
        mgr.retire(new tracked);
    });
    worker.join();
    const std::uint64_t before = mgr.current_epoch();
    for (int i = 0; i < 6; ++i) {
        epoch_manager::guard g(mgr);
        mgr.try_reclaim();
    }
    EXPECT_GT(mgr.current_epoch(), before)
        << "an exited thread must not pin the epoch forever";
    EXPECT_EQ(tracked::live.load(), 0)
        << "the exited thread's retired node must be freed";
}

TEST(Epoch, OrphanSweepDrainsExitedThreadsWithoutNewOwner) {
    // Nodes retired by exited threads must be freed by reclaim_orphans
    // (reachable from any thread's try_reclaim) — not wait for manager
    // destruction and not require the slot to be recycled first.
    epoch_manager mgr;
    for (int round = 0; round < 3; ++round) {
        std::thread worker([&] {
            epoch_manager::guard g(mgr);
            for (int i = 0; i < 40; ++i)
                mgr.retire(new tracked);
        });
        worker.join();
    }
    EXPECT_GT(tracked::live.load(), 0);
    for (int i = 0; i < 6; ++i) {
        epoch_manager::guard g(mgr);
        mgr.try_reclaim();
    }
    EXPECT_EQ(tracked::live.load(), 0);
    EXPECT_EQ(mgr.pending_count(), 0u);
}

TEST(Epoch, RecycledSlotAdoptsPredecessorsLimbo) {
    // Sequential short-lived threads recycle the same dense id
    // (util/thread_id.hpp hands out the smallest free slot).  Each new
    // owner that retires through a recycled slot must detect the
    // generation change and adopt what its predecessor left behind —
    // the limbo list survives the handoff, no node is lost or doubly
    // tracked, and the epoch tags keep reclamation exact.
    epoch_manager mgr;
    constexpr int rounds = 8, per_round = 10;
    for (int round = 0; round < rounds; ++round) {
        std::thread worker([&] {
            epoch_manager::guard g(mgr);
            for (int i = 0; i < per_round; ++i)
                mgr.retire(new tracked);
        });
        worker.join();
    }
    EXPECT_GT(mgr.limbo_adoptions(), 0u)
        << "sequential workers share a slot; adoption must trigger";
    EXPECT_EQ(mgr.freed_count() + mgr.pending_count(),
              static_cast<std::uint64_t>(rounds * per_round))
        << "adoption must neither lose nor duplicate retired nodes";
    for (int i = 0; i < 6; ++i) {
        epoch_manager::guard g(mgr);
        mgr.try_reclaim();
    }
    EXPECT_EQ(tracked::live.load(), 0);
}

TEST(Epoch, StalledReaderBoundsReclaimToItsEpoch) {
    // A stalled reader delays reclamation of nodes retired while it is
    // pinned, but must not block nodes retired at least two epochs
    // before its pin — the bound is the reader's pinned epoch, not a
    // global freeze.
    epoch_manager mgr;
    {
        epoch_manager::guard g(mgr);
        for (int i = 0; i < 30; ++i)
            mgr.retire(new tracked);
    }
    // Let the old batch become reclaimable (advance at least twice).
    for (int i = 0; i < 3; ++i) {
        epoch_manager::guard g(mgr);
        mgr.try_reclaim();
    }
    std::atomic<bool> pinned{false}, release{false};
    std::thread reader([&] {
        epoch_manager::guard g(mgr);
        pinned.store(true);
        while (!release.load())
            std::this_thread::yield();
    });
    while (!pinned.load())
        std::this_thread::yield();
    {
        epoch_manager::guard g(mgr);
        for (int i = 0; i < 30; ++i)
            mgr.retire(new tracked);
        mgr.try_reclaim();
    }
    // The pre-pin batch must be gone even though the reader stalls;
    // only the batch retired under the reader's pin may linger.
    EXPECT_LE(mgr.pending_count(), 30u)
        << "a stalled reader must only hold back its own epoch's nodes";
    release.store(true);
    reader.join();
    for (int i = 0; i < 6; ++i) {
        epoch_manager::guard g(mgr);
        mgr.try_reclaim();
    }
    EXPECT_EQ(tracked::live.load(), 0);
}

TEST(Epoch, ConcurrentRetireAndOrphanSweepStaysCoherent) {
    // Retiring threads, exiting threads, and orphan sweeps all touch
    // the per-slot limbo lists concurrently; under TSan this is the
    // witness that the per-slot locking covers every access.
    epoch_manager mgr;
    constexpr int writers = 3, per_writer = 400;
    std::atomic<bool> stop{false};
    std::thread sweeper([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            mgr.reclaim_orphans();
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < writers; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < per_writer; ++i) {
                epoch_manager::guard g(mgr);
                mgr.retire(new tracked);
                if (i % 64 == 0)
                    mgr.try_reclaim();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    stop.store(true);
    sweeper.join();
    EXPECT_EQ(mgr.freed_count() + mgr.pending_count(),
              static_cast<std::uint64_t>(writers * per_writer));
}

} // namespace
} // namespace klsm
