#pragma once

// Shared k-LSM priority queue component (paper Section 4.1, Listings 2-3).
//
// One global version-stamped pointer (`shared_`) to the current immutable
// BlockArray.  Every thread keeps:
//   * two BlockArray instances it alternates between (Section 4.4), used
//     both as private snapshots of `shared_` and as the staging area for
//     updates, plus a growable safety valve;
//   * a block pool whose published blocks are reclaimed once they are no
//     longer referenced by the *current* shared array (see block_pool.hpp
//     for why absence from the current array is a stable criterion);
//   * the stamped pointer (`observed`) and full version under which its
//     snapshot was copied.
//
// delete-min relaxation: find_min picks uniformly at random one of the
// <= k+1 smallest entries, delimited per block by the pivot indices
// (Listing 2), falling back to the block minimum when the pick is
// logically deleted.
//
// Local ordering: every entry's expected version carries the exact slot
// of the thread that inserted its item (item.hpp).  find_min looks for
// the caller's smallest alive entry no larger than the random candidate
// and serves it instead when there is one, so a thread never skips its
// own keys.  A per-block Bloom filter of contributing threads, the
// paper's device, saturates once blocks merge: every block then "may
// contain" every thread, and each thread's own minimum is simply the
// global minimum, which all threads chase.  The exact owner keeps the
// relaxation intact.  The own scan reads owners from the entries,
// dereferences only the caller's items, and resumes from per-slot
// cursors that stay valid while the snapshot is unchanged.
//
// Pivots (block_array::calculate_pivots / extend_pivots): an insert, or
// a consolidation that merged blocks, recomputes them with a (k+1)-step
// walk from every block's fill.  A consolidation that only trimmed dead
// suffixes extends them instead: the surviving candidates are still the
// smallest entries, so the walk continues from them for as many steps as
// candidates were trimmed.
//
// Shape and settling.  Listing 3 merges every level violation into the
// private snapshot before the publish CAS, so a lost CAS discards all
// of that work.  Once a spill's carry reaches the big levels, every
// thread that spills meanwhile recomputes the same huge merge and all
// but one throw it away.  Here a merge is *big* when its two inputs hold
// more than 16(k+1) entries together, and the publish path (normalize,
// from insert and from find_min's consolidation) merges only small
// violations.  The shape invariant is therefore: slot levels decrease
// strictly, except at big violating pairs (equal or lower level on the
// left) that wait to be settled.  After a successful publish, a thread
// that sees a big violation in the array it just published tries one
// atomic claim word (`settling_`); nobody waits on it.  The winner
// merges the pair's two immutable blocks outside any snapshot, into a
// block from the claim's own pool (so the big blocks held do not
// multiply with the number of threads that ever won the claim), then
// substitutes the result for both inputs in a fresh snapshot: the
// result takes the lower-index slot, the other slot goes, the
// small-only normalize and the pivot walk run, and the array is
// published.  A lost CAS retries only this O(max_blocks) substitution,
// and only while both inputs are still present with the generations
// they had when picked.  The winner keeps settling while its last
// publish left a big violation, so a carry climbs one level per
// publish, and releases the claim on every exit.
//
// Why a substitution loses and corrupts nothing:
//   * Blocks are immutable once published, and a slot's fill view only
//     shrinks: a trim lowers it past dead entries, and nothing raises
//     it for the same block life.  Every entry past a slot's current
//     view is dead for good, so the settled block holds every item that
//     is still alive in the two inputs.
//   * The inputs are picked from a copy of an array that was current
//     both before and after their generations were read, so the
//     generations name the lives that array references.  An input found
//     at that generation in a later current array was never recycled in
//     between (recycling bumps the generation), so the merge read
//     consistent entries, and block_pool.hpp's reclamation rule
//     (absence from the current array) holds unchanged.
//   * Pivots are recomputed over the whole array on every publish, so
//     the array's shape never enters the rho bound.
//   * The slot bound stays hard: once an array is within four slots of
//     max_blocks, normalize merges big violations too, smallest first,
//     until it is clear of the bound.
//
// Progress: operations retry only when another thread successfully
// replaced the shared array or recycled an array/block we were reading —
// i.e. when someone else made progress — so insert and find_min are
// lock-free (Lemmas 3-4).  A settle retry likewise follows another
// thread's publish; a stalled settler only leaves its big pair in place,
// and the four-slot safety merge keeps inserts going.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "adapt/contention_monitor.hpp"
#include "klsm/block.hpp"
#include "klsm/block_array.hpp"
#include "klsm/block_pool.hpp"
#include "klsm/item.hpp"
#include "klsm/lazy.hpp"
#include "mm/alloc_stats.hpp"
#include "mm/placement.hpp"
#include "trace/tracer.hpp"
#include "util/align.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"
#include "util/stamped_ptr.hpp"
#include "util/thread_id.hpp"

namespace klsm {

template <typename K, typename V>
class shared_lsm {
public:
    using arr = block_array<K, V>;
    static constexpr std::uint32_t max_blocks = arr::max_blocks;

    /// `place` governs where every thread's shared-pool block pages
    /// live (mm/placement.hpp); numa_klsm passes each shard's node.
    explicit shared_lsm(std::size_t k, mm::mem_placement place = {})
        : k_(k), big_(16 * (k + 1)), settle_pool_(place) {
        for (auto &s : threads_)
            s = std::make_unique<thread_state>(place);
    }

    shared_lsm(const shared_lsm &) = delete;
    shared_lsm &operator=(const shared_lsm &) = delete;

    std::size_t relaxation() const { return k_; }

    /// Attach (or detach, with nullptr) a contention monitor; the
    /// publish CAS loop reports publishes and retries to it.
    void set_monitor(adapt::contention_monitor *m) {
        monitor_.store(m, std::memory_order_relaxed);
    }

    /// Insert the contents of `src[0, src_filled)` (a sealed block owned
    /// by the calling thread's DistLSM) as a new block (Listing 3's
    /// insert: build on the private snapshot, then CAS-publish, retrying
    /// on a fresh snapshot until the CAS succeeds), then settle any big
    /// merge the publish left behind.
    template <typename Lazy = no_lazy>
    void insert(const block<K, V> *src, std::uint32_t src_filled,
                const Lazy &lazy = {}) {
        thread_state &ts = self();
        if (const arr *published = publish(ts, src, src_filled, lazy))
            settle(ts, published, lazy);
    }

    /// Find a candidate among the <= k+1 smallest entries (Listing 3's
    /// find_min).  Returns an empty ref iff the shared LSM is empty.  The
    /// caller attempts item_ref::take and calls again on failure.
    template <typename Lazy = no_lazy>
    item_ref<K, V> find_min(std::uint32_t tid, const Lazy &lazy = {}) {
        thread_state &ts = self();
        for (;;) {
            assert(ts.created.empty());
            if (!refresh_if_needed(ts))
                return {}; // shared is null: empty
            arr *snap = ts.snapshot;
            if (snap->count() == 0) {
                // A published empty array; replace it with null.
                push_null(ts);
                ts.snapshot = nullptr;
                continue;
            }

            item_ref<K, V> cand = select_candidate(ts, snap, tid);
            if (!cand.empty() && cand.alive()) {
                // Lemma 2 linearizes a successful delete at the *last*
                // comparison of shared with observed; re-verify here so
                // the window between verification and the caller's take
                // CAS is as small as the paper's.
                if (shared_.load() != ts.observed) {
                    ts.snapshot = nullptr;
                    continue;
                }
                return cand;
            }

            // The selected candidate (and the block-minimum fallback) was
            // logically deleted: consolidate, and publish if the shape
            // changed (Listing 3).
            snap->begin_mutate();
            const bool merged = consolidate(ts, snap, lazy);
            if (merged)
                snap->calculate_pivots(k_);
            else
                snap->extend_pivots(k_);
            const std::uint64_t v = snap->seal();

            if (snap->count() == 0) {
                rollback_created(ts);
                push_null(ts);
                ts.snapshot = nullptr;
                continue;
            }
            if (merged) {
                if (push_snapshot(ts, snap, v)) {
                    commit_created(ts);
                    ts.snapshot = nullptr;
                    settle(ts, snap, lazy);
                } else {
                    rollback_created(ts);
                    ts.snapshot = nullptr;
                }
            }
            // Not merged: keep using the locally trimmed snapshot.
        }
    }

    /// Approximate number of entries (including not-yet-trimmed logically
    /// deleted ones) in the current shared array.  May be off by the
    /// relaxation bound, as the paper's size() permits.
    std::size_t item_count_estimate() const {
        for (;;) {
            const auto cur = shared_.load();
            arr *a = cur.ptr();
            if (a == nullptr)
                return 0;
            const std::uint64_t v1 =
                a->version.load(std::memory_order_acquire);
            if ((v1 & 1) != 0 || !cur.matches(v1)) {
                if (shared_.load() == cur)
                    return 0;
                continue;
            }
            std::size_t total = 0;
            std::uint32_t n = a->size.load(std::memory_order_relaxed);
            if (n > max_blocks)
                continue;
            for (std::uint32_t i = 0; i < n; ++i)
                total += a->slots[i].filled.load(std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (a->version.load(std::memory_order_relaxed) != v1)
                continue;
            return total;
        }
    }

    /// Diagnostic: the slot levels of the current shared array, left to
    /// right (quiescent-only: reads the published array without
    /// validating it).
    std::vector<std::uint32_t> slot_levels() const {
        std::vector<std::uint32_t> levels;
        if (const arr *a = shared_.load().ptr())
            for (std::uint32_t i = 0; i < a->count(); ++i)
                levels.push_back(
                    a->slots[i].level.load(std::memory_order_relaxed));
        return levels;
    }

    /// Diagnostic: number of BlockArray instances allocated beyond the
    /// paper's two-per-thread bound.
    std::size_t extra_array_allocations() const {
        std::size_t n = 0;
        for (const auto &s : threads_)
            n += s->extra_arrays.size();
        return n;
    }

    /// Fold every thread's shared-pool telemetry into `out`
    /// (quiescent-only when `query_residency` walks the regions).
    void collect_memory(mm::memory_stats &out, bool query_residency) const {
        const auto add = [&](const block_pool<K, V> &pool) {
            out.shared_blocks.merge(pool.stats().snapshot());
            if (query_residency)
                pool.for_each_region([&](const void *p, std::size_t bytes) {
                    mm::query_resident_nodes(p, bytes,
                                             out.shared_blocks_resident);
                });
        };
        for (const auto &s : threads_)
            add(s->pool);
        add(settle_pool_);
    }

    /// Release every free block's entry pages across all thread slots
    /// (mm/reclaim/).  PRECONDITION: no concurrent operations on the
    /// queue.  Returns the number of page-release events.
    std::size_t quiescent_shrink() {
        std::size_t released = 0;
        for (const auto &s : threads_)
            released += s->pool.quiescent_shrink();
        return released + settle_pool_.quiescent_shrink();
    }

private:
    struct thread_state {
        explicit thread_state(mm::mem_placement place) : pool(place) {}

        std::unique_ptr<arr> arrays[2];
        std::vector<std::unique_ptr<arr>> extra_arrays; // safety valve
        arr *snapshot = nullptr;
        stamped_ptr<arr> observed{};
        std::uint64_t observed_version = 0;
        block_pool<K, V> pool;
        std::vector<block<K, V> *> created;

        /// Own-scan cursors (own_minimum), valid for one snapshot pointer,
        /// version and owner: every entry of slot i at or above
        /// own_cursor[i] is another owner's or dead, both permanent.
        const arr *cursor_snap = nullptr;
        std::uint64_t cursor_version = 0;
        std::uint32_t cursor_owner = 0;
        std::uint32_t own_cursor[max_blocks] = {};
    };

    static constexpr std::uint32_t no_slot = max_blocks;
    /// normalize merges big pairs too once this close to max_blocks.
    static constexpr std::uint32_t tight_slots = 4;

    thread_state &self() { return *threads_[thread_index()]; }

    /// One predictable branch when no monitor is attached.
    void note(adapt::event e) {
        adapt::contention_monitor *m =
            monitor_.load(std::memory_order_relaxed);
        if (m)
            m->count(e);
    }

    /// Listing 3's insert proper: build on the private snapshot, then
    /// CAS-publish, retrying on a fresh snapshot until the CAS succeeds.
    /// Returns the array it published, or null when every entry of the
    /// source was already dead.
    template <typename Lazy>
    const arr *publish(thread_state &ts, const block<K, V> *src,
                       std::uint32_t src_filled, const Lazy &lazy) {
        exp_backoff backoff;
        KLSM_TRACE_SPAN(publish_span, trace::kind::shared_publish);
        std::uint16_t publish_retries = 0;
        for (;;) {
            assert(ts.created.empty());
            arr *snap;
            if (refresh_if_needed(ts)) {
                snap = ts.snapshot;
                snap->begin_mutate();
            } else {
                snap = acquire_scratch(ts, nullptr);
                snap->begin_mutate();
                snap->size.store(0, std::memory_order_relaxed);
            }

            // Copy the source into a shared-pool block so DistLSM blocks
            // never escape into the shared structure.
            block<K, V> *nb = acquire_block(
                ts, block<K, V>::level_for(src_filled));
            nb->copy_from(*src, src_filled, lazy);
            nb->seal();
            if (nb->filled() == 0) {
                // Everything was already deleted or lazily expired;
                // nothing to publish.
                ts.pool.release(nb);
                snap->seal();
                publish_span.cancel();
                return nullptr;
            }
            ts.created.push_back(nb);

            insert_block_slot(ts, snap, nb, lazy);
            snap->calculate_pivots(k_);
            const std::uint64_t v = snap->seal();

            assert(snap->count() > 0 && "inserted a non-empty block");
            if (push_snapshot(ts, snap, v)) {
                commit_created(ts);
                note(adapt::event::shared_publish);
                publish_span.arg(publish_retries);
                return snap;
            }
            rollback_created(ts);
            ts.snapshot = nullptr;
            note(adapt::event::shared_publish_retry);
            if (publish_retries != 0xffff)
                ++publish_retries;
            backoff();
        }
    }

    // ---- snapshot management ----------------------------------------------

    /// Ensure ts.snapshot is a valid private copy of the current shared
    /// array.  Returns false iff shared is null (empty shared LSM).
    bool refresh_if_needed(thread_state &ts) {
        if (ts.snapshot != nullptr && shared_.load() == ts.observed)
            return true;
        exp_backoff backoff;
        for (;;) {
            const auto cur = shared_.load();
            arr *src = cur.ptr();
            if (src == nullptr) {
                ts.snapshot = nullptr;
                ts.observed = cur;
                return false;
            }
            const std::uint64_t v1 =
                src->version.load(std::memory_order_acquire);
            if ((v1 & 1) != 0 || !cur.matches(v1)) {
                // Array being recycled: its publication must already have
                // been superseded; retry on the fresh pointer.
                backoff();
                continue;
            }
            arr *dst = acquire_scratch(ts, src);
            dst->begin_mutate();
            const bool ok = dst->copy_from(*src, v1);
            dst->seal();
            if (!ok) {
                backoff();
                continue;
            }
            ts.snapshot = dst;
            ts.observed = cur;
            ts.observed_version = v1;
            return true;
        }
    }

    /// One of my arrays that is neither `avoid` nor the currently
    /// published array.  Such an array always exists (only I can publish
    /// my own arrays, and at most one of them can be the current shared
    /// array); the safety-valve allocation keeps us robust if that
    /// reasoning is ever violated.
    arr *acquire_scratch(thread_state &ts, arr *avoid) {
        arr *shared_now = shared_.load().ptr();
        for (auto &a : ts.arrays) {
            if (a == nullptr)
                a = std::make_unique<arr>();
            if (a.get() != avoid && a.get() != shared_now)
                return a.get();
        }
        for (auto &a : ts.extra_arrays)
            if (a.get() != avoid && a.get() != shared_now)
                return a.get();
        assert(false && "both thread-local BlockArrays unavailable");
        ts.extra_arrays.push_back(std::make_unique<arr>());
        return ts.extra_arrays.back().get();
    }

    /// CAS-publish the sealed snapshot (Listing 3's push_snapshot), with
    /// the paper's pre-CAS full-version verification of `observed` to
    /// minimize the 10-bit stamp wraparound window (Section 4.4).
    bool push_snapshot(thread_state &ts, arr *snap, std::uint64_t version) {
        arr *obs = ts.observed.ptr();
        if (obs != nullptr &&
            obs->version.load(std::memory_order_acquire) !=
                ts.observed_version)
            return false;
        const stamped_ptr<arr> desired(snap, version);
        return shared_.compare_exchange(ts.observed, desired);
    }

    /// ts.snapshot's source array is still the current one, unrecycled.
    bool still_observed(const thread_state &ts) const {
        return shared_.load() == ts.observed &&
               ts.observed.ptr()->version.load(std::memory_order_acquire) ==
                   ts.observed_version;
    }

    /// Replace a fully empty published array with null.
    void push_null(thread_state &ts) {
        arr *obs = ts.observed.ptr();
        if (obs == nullptr)
            return;
        if (obs->version.load(std::memory_order_acquire) !=
            ts.observed_version)
            return;
        shared_.compare_exchange(ts.observed, stamped_ptr<arr>{});
    }

    void commit_created(thread_state &ts) {
        for (block<K, V> *b : ts.created)
            ts.pool.mark_published(b);
        ts.created.clear();
    }

    void rollback_created(thread_state &ts) {
        for (block<K, V> *b : ts.created)
            ts.pool.release(b);
        ts.created.clear();
    }

    // ---- block recycling --------------------------------------------------

    block<K, V> *acquire_block(thread_state &ts, std::uint32_t level) {
        return ts.pool.acquire(level, level, [this](block<K, V> *b) {
            return unreferenced_by_current(b);
        });
    }

    /// True iff `b` is not referenced by the current shared array — a
    /// stable reclamation criterion: a block absent from the current
    /// array can never be re-published, because any snapshot still
    /// referencing it was copied from a superseded array and its push CAS
    /// must fail.
    bool unreferenced_by_current(block<K, V> *b) const {
        for (int attempt = 0; attempt < 8; ++attempt) {
            const auto cur = shared_.load();
            arr *a = cur.ptr();
            if (a == nullptr)
                return true;
            const std::uint64_t v1 =
                a->version.load(std::memory_order_acquire);
            if ((v1 & 1) != 0 || !cur.matches(v1))
                continue; // stale pointer; retry with a fresh one
            const std::uint32_t n = a->size.load(std::memory_order_relaxed);
            if (n > max_blocks)
                continue;
            bool found = false;
            for (std::uint32_t i = 0; i < n; ++i) {
                if (a->slots[i].blk.load(std::memory_order_relaxed) == b) {
                    found = true;
                    break;
                }
            }
            std::atomic_thread_fence(std::memory_order_acquire);
            if (a->version.load(std::memory_order_relaxed) != v1)
                continue; // torn scan
            return !found;
        }
        return false; // conservatively treat as still referenced
    }

    // ---- snapshot structure maintenance (private arrays) -------------------

    /// Insert block `nb` into the (mutating) snapshot at its level
    /// position, then merge the small level violations.
    template <typename Lazy>
    void insert_block_slot(thread_state &ts, arr *snap, block<K, V> *nb,
                           const Lazy &lazy) {
        const std::uint32_t filled = nb->filled();
        const std::uint32_t level = block<K, V>::level_for(filled);
        std::uint32_t pos = snap->count();
        while (pos > 0 &&
               snap->slots[pos - 1].level.load(std::memory_order_relaxed) <=
                   level)
            --pos;
        snap->insert_slot(pos, nb, filled, level);
        normalize(ts, snap, lazy);
    }

    /// Trim logically deleted suffixes (against the array-local fill
    /// views), drop empty slots, lower levels, and merge the small
    /// level-order violations.  Returns true if any blocks were merged
    /// (Listing 2's consolidate return value).
    template <typename Lazy>
    bool consolidate(thread_state &ts, arr *snap, const Lazy &lazy) {
        for (std::uint32_t i = snap->count(); i-- > 0;) {
            trim_slot(snap, i);
            if (snap->slots[i].filled.load(std::memory_order_relaxed) == 0)
                snap->remove_slot(i);
        }
        return normalize(ts, snap, lazy);
    }

    /// Lower a slot's fill view past logically deleted entries and adjust
    /// the slot level.  Purely local: the underlying block is immutable.
    void trim_slot(arr *snap, std::uint32_t i) {
        auto &s = snap->slots[i];
        block<K, V> *b = s.blk.load(std::memory_order_relaxed);
        std::uint32_t f = s.filled.load(std::memory_order_relaxed);
        if (f > b->capacity())
            f = static_cast<std::uint32_t>(b->capacity());
        while (f > 0) {
            item_ref<K, V> ref = b->load_entry(f - 1);
            if (ref.it != nullptr && ref.it->is_alive(ref.version))
                break;
            --f;
        }
        s.filled.store(f, std::memory_order_relaxed);
        s.level.store(block<K, V>::level_for(f), std::memory_order_relaxed);
    }

    /// Merge adjacent slots violating strictly decreasing levels, left
    /// to right, except big pairs (more than big_ entries), which stay
    /// for settle.  While the array is within tight_slots of max_blocks,
    /// big pairs merge too, the rightmost (smallest) first, one at a
    /// time until the array is clear of the bound: a tight array is
    /// usually a run of small ties, and merging its huge leftmost tie
    /// instead would put a settle-sized merge back on the publish path.
    template <typename Lazy>
    bool normalize(thread_state &ts, arr *snap, const Lazy &lazy) {
        bool merged_any = false;
        for (;;) {
            std::uint32_t j = 0;
            while (j + 1 < snap->count()) {
                if (!violates(snap, j) || is_big(snap, j)) {
                    ++j;
                    continue;
                }
                merge_slots(ts, snap, j, lazy);
                merged_any = true;
                // The merged slot may now violate against its left
                // neighbour.
                if (j > 0)
                    --j;
            }
            if (snap->count() + tight_slots < max_blocks)
                return merged_any;
            j = no_slot;
            for (std::uint32_t i = snap->count() - 1; i-- > 0;) {
                if (violates(snap, i)) {
                    j = i;
                    break;
                }
            }
            if (j == no_slot)
                return merged_any;
            merge_slots(ts, snap, j, lazy);
            merged_any = true;
        }
    }

    /// Slots j and j+1 violate strictly decreasing levels.
    static bool violates(const arr *a, std::uint32_t j) {
        return a->slots[j].level.load(std::memory_order_relaxed) <=
               a->slots[j + 1].level.load(std::memory_order_relaxed);
    }

    /// Merging slots j and j+1 would read more than big_ entries.
    bool is_big(const arr *a, std::uint32_t j) const {
        return std::size_t{a->slots[j].filled.load(
                   std::memory_order_relaxed)} +
                   a->slots[j + 1].filled.load(std::memory_order_relaxed) >
               big_;
    }

    /// The first big violating pair's left slot, or no_slot.
    std::uint32_t find_big(const arr *a) const {
        for (std::uint32_t j = 0; j + 1 < a->count(); ++j)
            if (violates(a, j) && is_big(a, j))
                return j;
        return no_slot;
    }

    /// The inputs of merging slots j and j+1: both blocks, their fill
    /// views, and the level of the merged block.
    struct slot_pair {
        block<K, V> *a, *c;
        std::uint32_t fa, fc, cap;
    };

    static slot_pair read_pair(const arr *snap, std::uint32_t j) {
        const auto &l = snap->slots[j];
        const auto &r = snap->slots[j + 1];
        const std::uint32_t la = l.level.load(std::memory_order_relaxed);
        const std::uint32_t lc = r.level.load(std::memory_order_relaxed);
        return {l.blk.load(std::memory_order_relaxed),
                r.blk.load(std::memory_order_relaxed),
                l.filled.load(std::memory_order_relaxed),
                r.filled.load(std::memory_order_relaxed),
                (la > lc ? la : lc) + 1};
    }

    static std::uint32_t slot_of(const arr *a, const block<K, V> *b) {
        for (std::uint32_t i = 0; i < a->count(); ++i)
            if (a->slots[i].blk.load(std::memory_order_relaxed) == b)
                return i;
        return no_slot;
    }

    // ---- settling big merges off the publish path ------------------------

    /// Called after a successful publish of `published`: if it holds a big
    /// violation and nobody else is settling, settle big violations
    /// until a publish leaves none.
    template <typename Lazy>
    void settle(thread_state &ts, const arr *published, const Lazy &lazy) {
        if (find_big(published) == no_slot)
            return;
        bool idle = false;
        if (!settling_.compare_exchange_strong(idle, true,
                                               std::memory_order_acquire,
                                               std::memory_order_relaxed))
            return;
        struct claim_guard {
            explicit claim_guard(std::atomic<bool> &c) : claim(c) {}
            claim_guard(const claim_guard &) = delete;
            claim_guard &operator=(const claim_guard &) = delete;
            ~claim_guard() { claim.store(false, std::memory_order_release); }
            std::atomic<bool> &claim;
        } guard{settling_};
        do
            published = settle_one(ts, lazy);
        while (published != nullptr && find_big(published) != no_slot);
    }

    /// Merge the current array's first big violating pair outside any
    /// snapshot, then substitute the result for both inputs in a fresh
    /// snapshot and publish it, retrying only the substitution.  Returns
    /// the array it published, or null when there was nothing to settle
    /// or an input vanished first (a discard).
    template <typename Lazy>
    const arr *settle_one(thread_state &ts, const Lazy &lazy) {
        slot_pair p{};
        std::uint64_t ga = 0, gc = 0;
        for (;;) {
            if (!refresh_if_needed(ts))
                return nullptr;
            const arr *snap = ts.snapshot;
            const std::uint32_t j = find_big(snap);
            if (j == no_slot)
                return nullptr;
            p = read_pair(snap, j);
            ga = p.a->generation();
            gc = p.c->generation();
            // The copied array was current before and after the
            // generations were read, so they name the lives it holds.
            if (still_observed(ts))
                break;
            ts.snapshot = nullptr;
        }

        block<K, V> *m = settle_pool_.acquire(
            p.cap, p.cap, [this](block<K, V> *x) {
                return unreferenced_by_current(x);
            });
        {
            KLSM_TRACE_SPAN(settle_span, trace::kind::shared_settle);
            settle_span.arg(static_cast<std::uint16_t>(p.cap));
            m->merge_from(*p.a, p.fa, *p.c, p.fc, lazy);
            m->seal();
        }
        const std::uint32_t mf = m->filled();

        exp_backoff backoff;
        for (;;) {
            assert(ts.created.empty());
            std::uint32_t ia = no_slot, ic = no_slot;
            if (refresh_if_needed(ts)) {
                ia = slot_of(ts.snapshot, p.a);
                ic = slot_of(ts.snapshot, p.c);
            }
            // Seqlock read side of the merge: unchanged generations after
            // its entry reads mean neither input was recycled under it.
            std::atomic_thread_fence(std::memory_order_acquire);
            if (ia == no_slot || ic == no_slot || p.a->generation() != ga ||
                p.c->generation() != gc) {
                settle_pool_.release(m);
                note(adapt::event::shared_settle_discard);
                return nullptr;
            }
            arr *snap = ts.snapshot;
            snap->begin_mutate();
            const std::uint32_t lo = ia < ic ? ia : ic;
            snap->remove_slot(ia < ic ? ic : ia);
            if (mf == 0)
                snap->remove_slot(lo);
            else
                snap->set_slot(lo, m, mf, block<K, V>::level_for(mf));
            // m stays out of ts.created: a lost CAS must not free it.
            normalize(ts, snap, lazy);
            snap->calculate_pivots(k_);
            const std::uint64_t v = snap->seal();
            if (push_snapshot(ts, snap, v)) {
                commit_created(ts);
                if (mf == 0)
                    settle_pool_.release(m);
                else
                    settle_pool_.mark_published(m);
                note(adapt::event::shared_settle);
                ts.snapshot = nullptr;
                return snap;
            }
            rollback_created(ts);
            ts.snapshot = nullptr;
            backoff();
        }
    }

    template <typename Lazy>
    void merge_slots(thread_state &ts, arr *snap, std::uint32_t j,
                     const Lazy &lazy) {
        const slot_pair p = read_pair(snap, j);
        block<K, V> *nb = acquire_block(ts, p.cap);
        nb->merge_from(*p.a, p.fa, *p.c, p.fc, lazy);
        nb->seal();

        // Inputs created this attempt (never published) recycle at once.
        release_if_created(ts, p.a);
        release_if_created(ts, p.c);

        const std::uint32_t filled = nb->filled();
        if (filled == 0) {
            ts.pool.release(nb);
            snap->remove_slot(j + 1);
            snap->remove_slot(j);
            return;
        }
        ts.created.push_back(nb);
        snap->set_slot(j, nb, filled, block<K, V>::level_for(filled));
        snap->remove_slot(j + 1);
    }

    void release_if_created(thread_state &ts, block<K, V> *b) {
        for (std::size_t i = 0; i < ts.created.size(); ++i) {
            if (ts.created[i] == b) {
                ts.created.erase(ts.created.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                ts.pool.release(b);
                return;
            }
        }
        // Published block dropped from the snapshot: its owner reclaims
        // it once this snapshot is published (absence from the current
        // array) — nothing to do here.
    }

    // ---- candidate selection (Listing 2) ------------------------------------

    /// Listing 2's find_min: draw uniformly from the candidate ranges,
    /// fall back to the block minimum if the pick is deleted, and prefer
    /// the calling thread's own minimal key when it is at least as small
    /// (local ordering semantics).
    item_ref<K, V> select_candidate(thread_state &ts, arr *snap,
                                    std::uint32_t tid) {
        const std::uint32_t n = snap->count();
        std::uint64_t total = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t f =
                snap->slots[i].filled.load(std::memory_order_relaxed);
            const std::uint32_t p =
                snap->slots[i].pivot.load(std::memory_order_relaxed);
            if (f > p)
                total += f - p;
        }

        item_ref<K, V> chosen{};
        if (total > 0) {
            std::uint64_t r = thread_rng().bounded(total);
            for (std::uint32_t i = 0; i < n; ++i) {
                const std::uint32_t f =
                    snap->slots[i].filled.load(std::memory_order_relaxed);
                const std::uint32_t p =
                    snap->slots[i].pivot.load(std::memory_order_relaxed);
                const std::uint64_t range = f > p ? f - p : 0;
                if (range <= r) {
                    r -= range;
                    continue;
                }
                block<K, V> *b =
                    snap->slots[i].blk.load(std::memory_order_relaxed);
                if (r != range - 1) {
                    item_ref<K, V> ref =
                        b->load_entry(p + static_cast<std::uint32_t>(r));
                    if (ref.it != nullptr && ref.it->is_alive(ref.version)) {
                        chosen = ref;
                        break;
                    }
                }
                // Fall back to the block minimum (possibly deleted; the
                // caller consolidates in that case).
                chosen = b->load_entry(f - 1);
                break;
            }
        }

        // Local ordering: the caller's own minimal key wins — but only
        // against a *valid* random candidate at least as large.  When the
        // candidate is empty or already deleted, the caller must
        // consolidate and retry instead: the own minimum alone carries no
        // rank bound (it may be far from the global minimum when the
        // smallest entries are all other threads').
        if (chosen.empty() || !chosen.it->is_alive(chosen.version))
            return chosen;
        const item_ref<K, V> own = own_minimum(ts, snap, tid, chosen.key);
        return own.empty() ? chosen : own;
    }

    /// The caller's smallest alive entry with key <= `bound`, or an empty
    /// ref.  Each slot is walked from its fill toward larger keys; the
    /// walk stops at the first key above the bound, which drops to the
    /// best own key found, or at the slot's first live own entry.  It
    /// resumes from ts.own_cursor and moves a cursor only past entries
    /// that are another owner's or dead, never past a live own entry.
    item_ref<K, V> own_minimum(thread_state &ts, const arr *snap,
                               std::uint32_t tid, K bound) {
        const std::uint32_t n = snap->count();
        const std::uint64_t version =
            snap->version.load(std::memory_order_relaxed);
        if (ts.cursor_snap != snap || ts.cursor_version != version ||
            ts.cursor_owner != tid) {
            for (std::uint32_t i = 0; i < n; ++i)
                ts.own_cursor[i] =
                    snap->slots[i].filled.load(std::memory_order_relaxed);
            ts.cursor_snap = snap;
            ts.cursor_version = version;
            ts.cursor_owner = tid;
        }
        item_ref<K, V> own{};
        for (std::uint32_t i = 0; i < n; ++i) {
            const block<K, V> *b =
                snap->slots[i].blk.load(std::memory_order_relaxed);
            std::uint32_t c = ts.own_cursor[i];
            for (; c > 0; --c) {
                const item_ref<K, V> e = b->load_entry(c - 1);
                if (bound < e.key)
                    break;
                if (item<K, V>::owner_of(e.version) == tid &&
                    e.it != nullptr && e.it->is_alive(e.version)) {
                    own = e;
                    bound = e.key;
                    break;
                }
            }
            ts.own_cursor[i] = c;
        }
        return own;
    }

    const std::size_t k_;
    /// Entries above which a merge is big: 16(k+1).
    const std::size_t big_;
    /// Contention telemetry sink; null when no monitor is attached.
    std::atomic<adapt::contention_monitor *> monitor_{nullptr};
    atomic_stamped_ptr<arr> shared_;
    /// Claim word of the one thread settling a big merge; nobody waits.
    alignas(cache_line_size) std::atomic<bool> settling_{false};
    /// Blocks of settled merges, used only by the claim holder (the claim
    /// CAS and release order successive holders).  One pool for every
    /// settler, so the number of big blocks held does not depend on
    /// which threads happened to win the claim.
    block_pool<K, V> settle_pool_;
    std::unique_ptr<thread_state> threads_[max_registered_threads];
};

} // namespace klsm
