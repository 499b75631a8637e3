#!/usr/bin/env python3
"""Validate the `memory` and `memory_timeline` telemetry in klsm_bench JSON.

Schema (README "Allocation telemetry" / "Memory reclamation & soak
testing"): when a report was produced with --alloc-stats, every record
of a k-LSM-family structure (klsm, dlsm) must carry

    "memory": {
      "pools": {
        "items":         {chunks, bytes, reuse_hits, fresh_allocs,
                          reuse_hit_rate, growth_beyond_bound,
                          page_aligned_chunks, reclaimed_chunks,
                          released_bytes, shrink_events,
                          reactivated_chunks},
        "dist_blocks":   {same fields},
        "shared_blocks": {same fields}
      }
    }

with internally consistent values (rates in [0, 1], reclaimed counts
never exceeding chunks, released bytes never exceeding chunk bytes), and
page_aligned_chunks equal to chunks when the report's `reclaim` policy
shrinks (full) and 0 otherwise: exactly the chunks allocated
under a shrinking placement are whole pages the shrink tier may release.

Records produced by `--workload churn` additionally carry

    "memory_timeline": {
      rss_reliable, shrink_events, rss_high_water_bytes,
      steady_rss_high_water_bytes, final_rss_bytes,
      pool_high_water_bytes, plateau_tolerance, plateau_ratio,
      plateau_ok,
      "phases":  [{index, name, insert_percent, bursty, start_t_ns,
                   end_t_ns, shrink_ns, inserts, deletes,
                   failed_deletes}, ...],
      "samples": [{t_ns, rss_bytes, pool_bytes, released_bytes,
                   reclaimed_chunks, shrink_events, phase}, ...]
    }

with monotone sample timestamps, monotone cumulative shrink_events,
released_bytes <= pool_bytes per sample, and phase windows ordered
with each boundary's shrink inside the gap before the next phase
(end_t_ns + shrink_ns <= the next start_t_ns).

Usage:
    check_memory_schema.py report.json [report2.json ...]
    check_memory_schema.py --bench path/to/klsm_bench
    check_memory_schema.py --bench-churn path/to/klsm_bench [--smoke]

--bench runs the allocation-telemetry acceptance command end to end
(--structure klsm --pin compact --smoke --alloc-stats --json-out -)
once under each --reclaim policy and validates its stdout.

--bench-churn runs the soak acceptance command (--workload churn
--alloc-stats --json-out -) and additionally *enforces* the soak
verdicts: at least one shrink event, and — when RSS is reliable and the
run was not a --smoke miniature — final RSS on the steady-phase plateau
(plateau_ok).  CTest invokes both so `ctest -L tier1` covers the JSON
wiring.
"""

import json
import subprocess
import sys

FAMILY = ("klsm", "dlsm")
RECLAIM_POLICIES = ("none", "full")
SHRINKING_POLICIES = ("full",)
COUNTER_FIELDS = ("chunks", "bytes", "reuse_hits", "fresh_allocs",
                  "growth_beyond_bound", "page_aligned_chunks",
                  "reclaimed_chunks", "released_bytes", "shrink_events",
                  "reactivated_chunks")
TIMELINE_SCALARS = ("shrink_events", "rss_high_water_bytes",
                    "steady_rss_high_water_bytes", "final_rss_bytes",
                    "pool_high_water_bytes")
SAMPLE_FIELDS = ("t_ns", "rss_bytes", "pool_bytes", "released_bytes",
                 "reclaimed_chunks", "shrink_events", "phase")
PHASE_FIELDS = ("index", "insert_percent", "start_t_ns", "end_t_ns",
                "shrink_ns", "inserts", "deletes", "failed_deletes")


def check_pool(where, pool, shrinking):
    for field in COUNTER_FIELDS:
        assert field in pool, f"{where}.{field} missing"
        value = pool[field]
        assert isinstance(value, int) and value >= 0, \
            f"{where}.{field} = {value!r} is not a non-negative integer"
    rate = pool.get("reuse_hit_rate")
    assert isinstance(rate, (int, float)) and 0.0 <= rate <= 1.0, \
        f"{where}.reuse_hit_rate = {rate!r} outside [0, 1]"
    expect_aligned = pool["chunks"] if shrinking else 0
    assert pool["page_aligned_chunks"] == expect_aligned, \
        f"{where}: page_aligned_chunks = {pool['page_aligned_chunks']}, " \
        f"expected {expect_aligned} ({'' if shrinking else 'no '}shrink)"
    # Reclamation invariants: the released gauges can never exceed what
    # exists (reclaimed chunks are a subset of chunks, released bytes a
    # subset of chunk bytes).
    assert pool["reclaimed_chunks"] <= pool["chunks"], \
        f"{where}: reclaimed_chunks exceeds chunks"
    assert pool["released_bytes"] <= pool["bytes"], \
        f"{where}: released_bytes exceeds bytes"
    if pool["chunks"] > 0:
        assert pool["bytes"] > 0, f"{where}: chunks without bytes"


def check_timeline(where, tl):
    assert isinstance(tl.get("rss_reliable"), bool), \
        f"{where}.rss_reliable missing"
    assert isinstance(tl.get("plateau_ok"), bool), \
        f"{where}.plateau_ok missing"
    for field in TIMELINE_SCALARS:
        value = tl.get(field)
        assert isinstance(value, int) and value >= 0, \
            f"{where}.{field} = {value!r} is not a non-negative integer"
    for field in ("plateau_tolerance", "plateau_ratio"):
        value = tl.get(field)
        assert isinstance(value, (int, float)) and value >= 0, \
            f"{where}.{field} = {value!r} is not a non-negative number"
    assert tl["steady_rss_high_water_bytes"] <= \
        tl["rss_high_water_bytes"], \
        f"{where}: steady high-water exceeds the overall high-water"

    samples = tl.get("samples")
    assert isinstance(samples, list) and samples, \
        f"{where}.samples missing or empty"
    prev_t = -1
    prev_shrinks = -1
    for i, s in enumerate(samples):
        sw = f"{where}.samples[{i}]"
        for field in SAMPLE_FIELDS:
            value = s.get(field)
            assert isinstance(value, int) and value >= 0, \
                f"{sw}.{field} = {value!r} is not a non-negative integer"
        assert s["t_ns"] >= prev_t, f"{sw}: timestamps must be monotone"
        assert s["shrink_events"] >= prev_shrinks, \
            f"{sw}: cumulative shrink_events went backwards"
        assert s["released_bytes"] <= s["pool_bytes"], \
            f"{sw}: released_bytes exceeds pool_bytes"
        prev_t = s["t_ns"]
        prev_shrinks = s["shrink_events"]
    assert tl["shrink_events"] == samples[-1]["shrink_events"], \
        f"{where}: derived shrink_events disagrees with the last sample"

    phases = tl.get("phases")
    assert isinstance(phases, list) and phases, \
        f"{where}.phases missing or empty"
    prev_end = 0
    for i, p in enumerate(phases):
        pw = f"{where}.phases[{i}]"
        assert isinstance(p.get("name"), str) and p["name"], \
            f"{pw}.name missing"
        assert isinstance(p.get("bursty"), bool), f"{pw}.bursty missing"
        for field in PHASE_FIELDS:
            value = p.get(field)
            assert isinstance(value, int) and value >= 0, \
                f"{pw}.{field} = {value!r} is not a non-negative integer"
        assert p["index"] == i, f"{pw}: phase indices must be dense"
        assert p["start_t_ns"] <= p["end_t_ns"], \
            f"{pw}: phase window inverted"
        assert p["start_t_ns"] >= prev_end, \
            f"{pw}: phase windows must not overlap the previous " \
            f"phase and its boundary shrink"
        prev_end = p["end_t_ns"] + p["shrink_ns"]


def check_report(report, path, require_timeline=False):
    assert report.get("alloc_stats") is True, \
        f"{path}: alloc_stats meta flag missing or false"
    assert report.get("reclaim") in RECLAIM_POLICIES, \
        f"{path}: reclaim meta = {report.get('reclaim')!r}"
    checked = 0
    timelines = 0
    for record in report.get("records", []):
        structure = record.get("structure")
        if "memory_timeline" in record:
            check_timeline(f"{path}:{structure}.memory_timeline",
                           record["memory_timeline"])
            timelines += 1
        if structure not in FAMILY:
            assert "memory" not in record, \
                f"{path}: {structure} has no pools but emits memory"
            continue
        assert "memory" in record, \
            f"{path}: {structure} record lacks the memory object"
        pools = record["memory"].get("pools")
        assert isinstance(pools, dict), f"{path}: memory.pools missing"
        for name in ("items", "dist_blocks", "shared_blocks"):
            assert name in pools, f"{path}: memory.pools.{name} missing"
            check_pool(f"{path}:{structure}.memory.pools.{name}",
                       pools[name],
                       report["reclaim"] in SHRINKING_POLICIES)
        # The paper's four-blocks-per-level bound is structural for the
        # DistLSM pools; the shared pools' safety valve is exempt.
        assert pools["dist_blocks"]["growth_beyond_bound"] == 0, \
            f"{path}: {structure} DistLSM pool grew beyond the bound"
        # Block pools allocate one block per fresh acquire, on demand.
        for name in ("dist_blocks", "shared_blocks"):
            assert pools[name]["chunks"] == pools[name]["fresh_allocs"], \
                f"{path}: {structure} {name} chunks != fresh_allocs"
        checked += 1
    assert checked, f"{path}: no k-LSM-family records with memory data"
    if require_timeline:
        assert timelines, f"{path}: no memory_timeline records"
    return checked


def check_soak_verdicts(report, path, enforce_plateau):
    """The churn-soak acceptance gates, beyond schema validity."""
    for record in report.get("records", []):
        if record.get("structure") not in FAMILY:
            continue
        tl = record["memory_timeline"]
        where = f"{path}:{record['structure']}"
        assert tl["shrink_events"] >= 1, \
            f"{where}: the soak must observe at least one shrink event"
        if enforce_plateau and tl["rss_reliable"]:
            assert tl["plateau_ok"], (
                f"{where}: final RSS {tl['final_rss_bytes']} is "
                f"{tl['plateau_ratio']:.2f}x the steady-phase high-water "
                f"{tl['steady_rss_high_water_bytes']} "
                f"(tolerance {tl['plateau_tolerance']})")


def main(argv):
    if len(argv) >= 2 and argv[0] == "--bench":
        for policy in RECLAIM_POLICIES:
            cmd = [argv[1], "--structure", "klsm", "--pin", "compact",
                   "--smoke", "--alloc-stats", "--reclaim", policy,
                   "--json-out", "-"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
            report = json.loads(out.stdout)
            assert report.get("reclaim") == policy, \
                f"--reclaim {policy}: report says {report.get('reclaim')!r}"
            checked = check_report(report, f"<bench stdout, {policy}>")
            print(f"memory schema OK: acceptance run, --reclaim {policy}, "
                  f"{checked} record(s)")
        return 0
    if len(argv) >= 2 and argv[0] == "--bench-churn":
        smoke = "--smoke" in argv[2:]
        cmd = [argv[1], "--workload", "churn", "--structure", "klsm",
               "--threads", "4", "--alloc-stats", "--json-out", "-"]
        if smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
        report = json.loads(out.stdout)
        checked = check_report(report, "<bench stdout>",
                               require_timeline=True)
        # Smoke miniatures are too small for a meaningful RSS plateau
        # (process overheads dominate); schema and shrink-event gates
        # still apply.
        check_soak_verdicts(report, "<bench stdout>",
                            enforce_plateau=not smoke)
        print(f"memory timeline OK: churn acceptance run, "
              f"{checked} record(s)")
        return 0
    if not argv:
        print(__doc__)
        return 2
    for path in argv:
        with open(path) as f:
            report = json.load(f)
        checked = check_report(report, path)
        print(f"memory schema OK: {path} ({checked} record(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
