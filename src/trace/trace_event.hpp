#pragma once

// The event vocabulary of the runtime tracer (src/trace/).
//
// One trace event is two machine words: a 64-bit monotonic timestamp
// and a packed (kind, a, b) payload.  Keeping the record this small is
// what lets the hot paths of the k-LSM — block publishes, shared-LSM
// spills, reclamation steps — stay instrumented in every build: an
// enabled tracer pays one clock read and one 16-byte store into a
// thread-private ring; a disabled one pays a single relaxed load and a
// predictable branch.
//
// The kind table below is the single source of truth for how each kind
// renders in the Chrome-trace/Perfetto export (trace_export.hpp) and
// how scripts/trace_report.py attributes events to subsystems: `span`
// kinds carry their duration in `b` (nanoseconds, saturating) and
// export as ph:"X" complete events; instant kinds export as ph:"i"
// with both arguments named.

#include <cstdint>

namespace klsm::trace {

/// Everything the runtime can record.  Append-only: exported traces
/// identify kinds by name, but the ring stores the ordinal.
enum class kind : std::uint16_t {
    none = 0,
    /// DistLSM insert/insert_batch ran Listing 4's merge chain and
    /// published (span; a = blocks merged into the new block).
    dist_publish,
    /// DistLSM exceeded its spill bound and handed one merged block to
    /// the shared LSM (instant; b = items spilled).
    dist_spill,
    /// A buffered handle flushed its staged inserts as one pre-sorted
    /// block (instant; b = batch size).
    dist_batch_flush,
    /// shared_lsm::insert won the publish CAS (span over the whole
    /// copy/pivot/publish loop; a = CAS retries burned first).
    shared_publish,
    /// A pool chunk whose items are all dead left the allocation path
    /// (instant; b = chunk bytes).
    reclaim_quarantine,
    /// A quarantined region's pages went back to the OS via
    /// madvise(MADV_DONTNEED) (instant; b = bytes released).
    reclaim_release,
    /// A quiescent shrink pass over a whole structure (instant;
    /// b = page-release events it triggered).
    reclaim_shrink,
    /// The epoch manager advanced the global epoch (instant;
    /// b = new epoch, low 32 bits).
    epoch_advance,
    /// An open-loop service op was issued later than the grace window
    /// allows (instant; b = lateness in ns, saturating).
    service_late,
    /// A record's SLO verdict failed (instant; b = observed p99 in us,
    /// saturating).
    slo_violation,
    /// One benchmark record's measurement window (span; a = record
    /// index within the invocation's sweep).
    bench_record,
    /// Branch-and-bound expanded a live subproblem node (instant;
    /// a = depth, b = the node's upper bound, saturating).
    bnb_expand,
    /// Discrete-event simulation committed an event (instant; a = the
    /// logical process, b = commit lag in virtual time — how far the
    /// LP's clock was already past the event's timestamp, saturating).
    des_commit,
    /// shared_lsm settled a big merge off the publish path (span over
    /// the merge itself; a = capacity level of the merged block).
    shared_settle,
};
inline constexpr std::uint16_t kind_count = 15;

/// Two words: 8-byte timestamp + 8-byte payload.
struct trace_event {
    std::uint64_t ts_ns = 0; ///< absolute steady-clock ns (span: end)
    std::uint16_t kind_ = 0;
    std::uint16_t a = 0;
    std::uint32_t b = 0;
};
static_assert(sizeof(trace_event) == 16, "trace events are two words");

/// Display metadata for one kind.  `arg_b` is ignored for spans, where
/// `b` is the duration.
struct kind_info {
    const char *name;
    const char *category; ///< subsystem bucket for trace_report.py
    bool span;
    const char *arg_a;
    const char *arg_b;
};

inline constexpr kind_info kind_table[kind_count] = {
    {"none", "misc", false, "a", "b"},
    {"dist.publish", "dist_lsm", true, "merged_blocks", nullptr},
    {"dist.spill", "dist_lsm", false, "level", "items"},
    {"dist.batch_flush", "dist_lsm", false, "", "items"},
    {"shared.publish", "shared_lsm", true, "retries", nullptr},
    {"reclaim.quarantine", "mm", false, "pool", "bytes"},
    {"reclaim.release", "mm", false, "pool", "bytes"},
    {"reclaim.shrink", "mm", false, "", "released"},
    {"epoch.advance", "mm", false, "", "epoch"},
    {"service.late", "service", false, "", "lateness_ns"},
    {"service.slo_violation", "service", false, "", "p99_us"},
    {"bench.record", "bench", true, "record", nullptr},
    {"bnb.expand", "workload", false, "depth", "bound"},
    {"des.commit", "workload", false, "lp", "lag"},
    {"shared.settle", "shared_lsm", true, "level", nullptr},
};

inline const kind_info &info(std::uint16_t k) {
    return kind_table[k < kind_count ? k : 0];
}
inline const kind_info &info(kind k) {
    return info(static_cast<std::uint16_t>(k));
}

/// Saturating narrowing for event payloads: a clamped argument beats a
/// silently wrapped one in a trace meant for debugging.
inline std::uint16_t clamp16(std::uint64_t v) {
    return v > 0xffff ? std::uint16_t{0xffff}
                      : static_cast<std::uint16_t>(v);
}
inline std::uint32_t clamp32(std::uint64_t v) {
    return v > 0xffffffffULL ? std::uint32_t{0xffffffff}
                             : static_cast<std::uint32_t>(v);
}

} // namespace klsm::trace
