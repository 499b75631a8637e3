#pragma once

// memory_timeline — RSS + pool high-water telemetry over time.
//
// The churn soak harness (src/harness/churn.hpp) samples this during
// and between workload phases; the JSON emitted here is validated by
// scripts/check_memory_schema.py and diffed by scripts/compare_bench.py
// (RSS high-water regressions are enforcing).
//
// The plateau verdict encodes the soak invariant: after the key-range
// phase shifts, final RSS must settle within `plateau_tolerance` of the
// *steady-phase* high-water — not the cumulative peak — or the shrink
// tier is not actually returning the surge memory.
//
// RSS is read from /proc/self/statm.  Under ASan/TSan the allocator
// shadow dominates RSS and the number says nothing about the pools, so
// `rss_reliable` is false and consumers must only enforce the
// pool-byte invariants (the schema checker and compare_bench both
// honor the flag).

#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KLSM_RSS_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#ifndef KLSM_RSS_UNDER_SANITIZER
#define KLSM_RSS_UNDER_SANITIZER 1
#endif
#endif

namespace klsm::mm::reclaim {

/// True when resident-set readings on this build/platform reflect the
/// pools rather than sanitizer shadow (or nothing at all).
inline bool rss_sampling_reliable() {
#if defined(KLSM_RSS_UNDER_SANITIZER)
    return false;
#elif defined(__linux__)
    return true;
#else
    return false;
#endif
}

/// Current resident set size in bytes (0 when unavailable).
inline std::uint64_t current_rss_bytes() {
#if defined(__linux__)
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long long vm_pages = 0, rss_pages = 0;
    const int got = std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages);
    std::fclose(f);
    if (got != 2)
        return 0;
    return static_cast<std::uint64_t>(rss_pages) *
           static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
#else
    return 0;
#endif
}

struct timeline_sample {
    std::uint64_t t_ns = 0;       ///< steady-clock ns since harness start
    std::uint64_t rss_bytes = 0;  ///< whole-process RSS
    std::uint64_t pool_bytes = 0; ///< sum of pool chunk bytes (VA)
    std::uint64_t released_bytes = 0;   ///< currently madvised-away
    std::uint64_t reclaimed_chunks = 0; ///< currently-released chunks
    std::uint64_t shrink_events = 0;    ///< cumulative releases
    std::uint32_t phase = 0; ///< workload phase index at sample time
};

struct timeline_phase_mark {
    std::string name;
    std::uint32_t index = 0;
    unsigned insert_percent = 50;
    bool bursty = false;
    std::uint64_t start_t_ns = 0;
    std::uint64_t end_t_ns = 0;
    /// Time of the quiescent_shrink at this phase's closing boundary
    /// (0 for structures without pools); it runs after end_t_ns.
    std::uint64_t shrink_ns = 0;
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t failed_deletes = 0;
};

struct memory_timeline {
    std::vector<timeline_sample> samples;
    std::vector<timeline_phase_mark> phases;
    bool rss_reliable = false;
    double plateau_tolerance = 0.25;

    // Derived in finalize():
    std::uint64_t shrink_events = 0;
    std::uint64_t rss_high_water_bytes = 0;
    std::uint64_t steady_rss_high_water_bytes = 0;
    std::uint64_t final_rss_bytes = 0;
    std::uint64_t pool_high_water_bytes = 0;
    double plateau_ratio = 0.0;
    bool plateau_ok = false;

    /// Compute the derived verdict fields.  `steady_phase` names the
    /// phase whose high-water is the plateau reference (the first
    /// steady phase, before any key-range shift).
    void finalize(std::uint32_t steady_phase = 0) {
        rss_high_water_bytes = 0;
        steady_rss_high_water_bytes = 0;
        pool_high_water_bytes = 0;
        for (const timeline_sample &s : samples) {
            if (s.rss_bytes > rss_high_water_bytes)
                rss_high_water_bytes = s.rss_bytes;
            if (s.phase == steady_phase &&
                s.rss_bytes > steady_rss_high_water_bytes)
                steady_rss_high_water_bytes = s.rss_bytes;
            if (s.pool_bytes > pool_high_water_bytes)
                pool_high_water_bytes = s.pool_bytes;
        }
        final_rss_bytes = samples.empty() ? 0 : samples.back().rss_bytes;
        shrink_events = samples.empty() ? 0 : samples.back().shrink_events;
        plateau_ratio =
            steady_rss_high_water_bytes == 0
                ? 0.0
                : static_cast<double>(final_rss_bytes) /
                      static_cast<double>(steady_rss_high_water_bytes);
        // The plateau claim is only as meaningful as RSS itself: under
        // sanitizers (or without /proc) the verdict defaults to pass
        // and consumers key off rss_reliable instead.
        plateau_ok =
            !rss_reliable || plateau_ratio <= 1.0 + plateau_tolerance;
    }

    /// Nested JSON object for json_record::set_raw("memory_timeline", ...)
    /// — README "Memory reclamation & soak testing" documents the schema.
    std::string to_json() const {
        std::ostringstream os;
        os << "{\"rss_reliable\":" << (rss_reliable ? "true" : "false")
           << ",\"shrink_events\":" << shrink_events
           << ",\"rss_high_water_bytes\":" << rss_high_water_bytes
           << ",\"steady_rss_high_water_bytes\":"
           << steady_rss_high_water_bytes
           << ",\"final_rss_bytes\":" << final_rss_bytes
           << ",\"pool_high_water_bytes\":" << pool_high_water_bytes
           << ",\"plateau_tolerance\":" << std::setprecision(6)
           << plateau_tolerance
           << ",\"plateau_ratio\":" << std::setprecision(6)
           << plateau_ratio
           << ",\"plateau_ok\":" << (plateau_ok ? "true" : "false")
           << ",\"phases\":[";
        for (std::size_t i = 0; i < phases.size(); ++i) {
            const timeline_phase_mark &p = phases[i];
            os << (i ? "," : "") << "{\"index\":" << p.index
               << ",\"name\":\"" << p.name << '"'
               << ",\"insert_percent\":" << p.insert_percent
               << ",\"bursty\":" << (p.bursty ? "true" : "false")
               << ",\"start_t_ns\":" << p.start_t_ns
               << ",\"end_t_ns\":" << p.end_t_ns
               << ",\"shrink_ns\":" << p.shrink_ns
               << ",\"inserts\":" << p.inserts
               << ",\"deletes\":" << p.deletes
               << ",\"failed_deletes\":" << p.failed_deletes << '}';
        }
        os << "],\"samples\":[";
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const timeline_sample &s = samples[i];
            os << (i ? "," : "") << "{\"t_ns\":" << s.t_ns
               << ",\"rss_bytes\":" << s.rss_bytes
               << ",\"pool_bytes\":" << s.pool_bytes
               << ",\"released_bytes\":" << s.released_bytes
               << ",\"reclaimed_chunks\":" << s.reclaimed_chunks
               << ",\"shrink_events\":" << s.shrink_events
               << ",\"phase\":" << s.phase << '}';
        }
        os << "]}";
        return os.str();
    }
};

} // namespace klsm::mm::reclaim
