#!/usr/bin/env python3
"""Diff two klsm_bench JSON reports and flag perf regressions.

The primitive the CI perf lane is built from:

    scripts/compare_bench.py baseline.json candidate.json

compares every record the two reports share — matched on
(workload, structure, pin, threads) — and exits nonzero when the
candidate regresses.

What a record is judged on is declared by the workload that wrote it:
klsm_bench writes each selected workload's gates into the report's
`gates` meta block (`metric_gate` in src/harness/workload_registry.hpp),
and one loop here diffs them.  A gate names a dotted record `path`, its
`unit`, which direction is `better`, and a `kind`:

  * scalar: a number that regresses when it worsens by more than its
    tolerance class allows and, given a `floor`, by more than the floor
    in absolute terms.  A negative value means "not measured";
  * verdict: a bool whose flip from the passing value (true when
    `better` is "higher") to the failing one regresses; failing on both
    sides only warns;
  * latency: a block shaped like a record's `latency` object, compared
    like one.

`tolerance` names a class of TOLERANCES, or "advisory" (printed, never
a regression).  `requires` names a bool that must hold on both sides,
else the finding drops to a warning; `match` names a field that must be
equal on both sides, else the gate is skipped; `context` lists fields
printed beside the metric.  The candidate's declarations apply, and a
baseline that declares different gates warns.  Records without a
`workload` field take the report's `benchmark` (reports predating the
field).

Beside the declared gates, every record is diffed on:

  * its `latency` object: insert / delete_min p50, p99 and max growing
    by more than the latency class AND by more than LATENCY_FLOOR_NS,
    so nanosecond jitter on fast paths never trips the gate;
  * its `timeseries` block (--metrics-interval runs): the cumulative
    `ops` counter is differenced into per-interval rates, bucketed into
    four run phases, and each phase's mean rate is compared under the
    phase class (looser than the whole-run gate because a quarter of
    the samples is noisier).  This catches phase-localized regressions
    — a warm-up stall or an end-of-run collapse — that the run-wide
    mean averages away.  Records without a timeseries on either side
    (all baselines predating --metrics-interval) skip this silently.

`--sweep` additionally bucket-merges every matched record of a
(workload, structure) group — across threads and pin policies — and
compares percentiles re-derived from the merged buckets, so a whole
sweep is judged as one distribution.  The merge is exact (the bucket
layout is shared, identical to the C++ merge), which is what the sparse
`buckets` export exists for.

`--warn-only` prints the same comparison but always exits 0 — the
advisory mode CI uses on pull requests, where runner-to-runner noise
makes a hard gate unfair.  `--self-test` runs the built-in check suite;
given a klsm_bench binary it also runs every registered workload once
and checks the declarations against the real reports.  CTest invokes
it, so the gate's own logic is covered by `ctest -L tier1`.

`--head-to-head` takes ONE report and diffs klsm against multiqueue
(the paper's queue vs the engineered-MultiQueue rival) within it:
records pair on (workload, pin, threads), and each declared gate prints
a line per pair — a ratio for a scalar, both values for a verdict — plus
its context fields.  The mode is informational — it exits nonzero only
when the report contains no matchable pairs, never on a losing ratio.
"""

import argparse
import copy
import json
import re
import subprocess
import sys

# The tolerance classes a gate names: the allowed fractional worsening.
# --throughput-tolerance overrides "rate".
TOLERANCES = {"rate": 0.25, "search": 1.0, "rss": 0.5, "latency": 0.50,
              "phase": 0.40}
LATENCY_FLOOR_NS = 500
PERCENTILES = ("p50", "p99", "max")
OPS = ("insert", "delete_min")
HEAD_TO_HEAD = ("klsm", "multiqueue")


# ---------------------------------------------------------------------------
# Histogram bucket math — mirrors src/stats/latency_histogram.hpp.

def bucket_lower(index, sub_bits):
    sub_count = 1 << sub_bits
    group = index >> sub_bits
    if group == 0:
        return index
    shift = group - 1
    sub = index & (sub_count - 1)
    return (sub_count + sub) << shift


def bucket_upper(index, sub_bits):
    group = index >> sub_bits
    if group == 0:
        return index
    shift = group - 1
    return bucket_lower(index, sub_bits) + (1 << shift) - 1


def percentile_from_buckets(op_stats, sub_bits, p):
    """Re-derive a percentile from the sparse bucket array, matching the
    C++ definition: upper edge of the bucket holding the sample of rank
    round(p/100 * count), clamped to the recorded max."""
    count = op_stats["count"]
    if count == 0:
        return 0
    rank = max(1, min(count, int(p / 100.0 * count + 0.5)))
    seen = 0
    for index, bucket_count in op_stats["buckets"]:
        seen += bucket_count
        if seen >= rank:
            return min(bucket_upper(index, sub_bits), op_stats["max"])
    return op_stats["max"]


def merge_op_stats(op_stats_list):
    """Exact bucket-wise merge of several per-op latency objects (the
    same addition the C++ merge performs, so whole-sweep percentiles can
    be re-derived from the result).  Empty inputs merge to a count-0
    stub."""
    merged = {"count": 0, "min": None, "max": 0, "mean": 0.0,
              "dropped_intervals": 0, "buckets": []}
    buckets = {}
    total_sum = 0.0
    for op_stats in op_stats_list:
        count = op_stats.get("count", 0)
        if count == 0:
            continue
        merged["count"] += count
        total_sum += op_stats.get("mean", 0.0) * count
        merged["max"] = max(merged["max"], op_stats.get("max", 0))
        op_min = op_stats.get("min", 0)
        merged["min"] = op_min if merged["min"] is None else min(
            merged["min"], op_min)
        merged["dropped_intervals"] += op_stats.get("dropped_intervals", 0)
        for index, bucket_count in op_stats.get("buckets", []):
            buckets[index] = buckets.get(index, 0) + bucket_count
    merged["min"] = merged["min"] or 0
    if merged["count"]:
        merged["mean"] = total_sum / merged["count"]
    merged["buckets"] = sorted(buckets.items())
    return merged


def merge_latency(records):
    """Merge the `latency` objects of several records into one aggregate
    per op kind.  Returns (merged_by_op, sub_bits) or (None, reason) when
    the records cannot be merged (no latency data, or mixed bucket
    layouts)."""
    sub_bits = None
    per_op = {op: [] for op in OPS}
    for record in records:
        lat = record.get("latency")
        if not lat:
            continue
        bits = lat.get("sub_bucket_bits", 5)
        if sub_bits is None:
            sub_bits = bits
        elif bits != sub_bits:
            return None, "mixed sub_bucket_bits across records"
        for op in OPS:
            if lat.get(op):
                per_op[op].append(lat[op])
    if sub_bits is None:
        return None, "no latency data in any record"
    return {op: merge_op_stats(stats) for op, stats in per_op.items()}, \
        sub_bits


# ---------------------------------------------------------------------------
# Report access.

def load_report(path):
    with open(path) as f:
        return json.load(f)


def get_path(record, path):
    """The value at a dotted record path ("a.b"), or None."""
    value = record
    for part in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    return value


def record_key(report, record):
    # Records carry their own workload name since the registry allowed
    # comma selections; fall back to the report meta for reports
    # predating the field.
    return (
        record.get("workload", report.get("benchmark", "?")),
        record.get("structure", "?"),
        record.get("pin", "?"),
        record.get("threads", "?"),
    )


def index_records(report):
    out = {}
    for record in report.get("records", []):
        out[record_key(report, record)] = record
    return out


def fmt_key(key):
    workload, structure, pin, threads = key
    return f"{workload} {structure}/pin={pin}/t={threads}"


def fmt_value(value, unit):
    if unit == "B":
        return f"{value / (1024.0 * 1024.0):,.1f} MB"
    if abs(value) >= 1000:
        return f"{value:,.0f} {unit}"
    return f"{value:.4g} {unit}"


def context_text(record, gate):
    values = ((p, get_path(record, p)) for p in gate.get("context", []))
    return " ".join(f"{p}={json.dumps(v)}" for p, v in values
                    if v is not None)


# ---------------------------------------------------------------------------
# Comparison core.  Each finding is (severity, message) with severity in
# {"ok", "warn", "regression"}.

def compare_metric(findings, key, metric, base, cand, tolerance, better,
                   unit, floor=0, severity="regression"):
    """Diff one number; `tolerance` None marks an advisory metric."""
    if base is None or cand is None:
        return
    change = (cand - base) / base if base else 0.0
    if tolerance is None:
        degraded, limit = False, "advisory"
    elif better == "lower":
        degraded = cand > base * (1 + tolerance) and cand - base > floor
        limit = f"tolerance +{tolerance:.0%}"
    else:
        degraded = cand < base * (1 - tolerance) and base - cand > floor
        limit = f"tolerance -{tolerance:.0%}"
    findings.append((
        severity if degraded else "ok",
        f"{fmt_key(key)} {metric}: {fmt_value(base, unit)} -> "
        f"{fmt_value(cand, unit)} ({change:+.1%}, {limit})",
    ))


def compare_latency(findings, key, base_lat, cand_lat, tolerance,
                    severity, prefix=""):
    for op in OPS:
        base_op = base_lat.get(op)
        cand_op = cand_lat.get(op)
        if not base_op or not cand_op:
            continue
        if base_op["count"] == 0 or cand_op["count"] == 0:
            findings.append((
                "warn",
                f"{fmt_key(key)} {prefix}{op}: empty latency "
                f"histogram (base count {base_op['count']}, candidate "
                f"count {cand_op['count']}); skipping",
            ))
            continue
        for pct in PERCENTILES:
            compare_metric(findings, key, f"{prefix}{op} {pct}",
                           base_op.get(pct), cand_op.get(pct), tolerance,
                           "lower", "ns", LATENCY_FLOOR_NS, severity)


def latency_severity(args, severity="regression"):
    """Latency findings demote to warnings under --latency-warn-only —
    the mode the CI baseline gate uses: every other gate is enforced,
    but latency percentiles recorded on different hardware stay
    advisory."""
    return "warn" if args.latency_warn_only else severity


def compare_gate(findings, key, gate, base, cand, args):
    """Diff one declared gate of a matched record pair."""
    path = gate["path"]
    label = f"{fmt_key(key)} {path}"
    match = gate.get("match")
    if match and get_path(base, match) != get_path(cand, match):
        findings.append((
            "warn", f"{label}: {match} changed ({get_path(base, match)} "
            f"-> {get_path(cand, match)}); skipping"))
        return
    b, c = get_path(base, path), get_path(cand, path)
    if b is None or c is None:
        side = "baseline" if b is None else "candidate"
        findings.append(("warn", f"{label}: not in the {side} record; "
                                 f"skipping"))
        return
    severity = "regression"
    need = gate.get("requires")
    if need and not (get_path(base, need) and get_path(cand, need)):
        severity = "warn"
        findings.append(("warn", f"{label}: {need} is false on at least "
                                 f"one side; advisory"))
    kind = gate.get("kind", "scalar")
    tolerance = args.tolerance.get(gate.get("tolerance", "rate"))
    if kind == "verdict":
        good = gate["better"] == "higher"
        flip = f"{label}: {json.dumps(b)} -> {json.dumps(c)}"
        if b == good and c != good:
            detail = context_text(cand, gate)
            findings.append((severity, f"{flip}, verdict flipped"
                                       + (f" ({detail})" if detail else "")))
        elif b != good and c != good:
            findings.append(("warn", f"{flip}, fails on both sides "
                                     f"(baseline was already failing)"))
        else:
            findings.append(("ok", flip))
    elif kind == "latency":
        compare_latency(findings, key, b, c, tolerance,
                        latency_severity(args, severity), prefix=f"{path} ")
    elif b >= 0 and c >= 0:
        compare_metric(findings, key, path, b, c, tolerance, gate["better"],
                       gate["unit"], gate.get("floor", 0), severity)


def timeseries_phase_rates(ts, column="ops", phases=4):
    """Difference a timeseries' cumulative counter column into
    per-interval rates and average them over `phases` equal time
    buckets.  Returns a list of per-phase mean rates (None for a phase
    that caught no interval), or None when the record carries no usable
    series — no timeseries at all, no `ops` counter column, or too few
    rows to populate the buckets."""
    if not isinstance(ts, dict):
        return None
    columns = ts.get("columns") or []
    col = next((i for i, c in enumerate(columns)
                if isinstance(c, dict) and c.get("name") == column
                and c.get("kind") == "counter"), None)
    if col is None:
        return None
    samples = ts.get("samples") or []
    if len(samples) < phases + 1:
        return None
    t_end = samples[-1][0]
    if not t_end or t_end <= 0:
        return None
    sums = [0.0] * phases
    hits = [0] * phases
    for prev, row in zip(samples, samples[1:]):
        dt = row[0] - prev[0]
        if dt <= 0:
            continue
        rate = (row[col + 1] - prev[col + 1]) / dt
        midpoint = (row[0] + prev[0]) / 2.0
        bucket = min(phases - 1, int(midpoint / t_end * phases))
        sums[bucket] += rate
        hits[bucket] += 1
    return [sums[i] / hits[i] if hits[i] else None
            for i in range(phases)]


def compare_timeseries(findings, key, base_record, cand_record, args):
    """Phase-localized ops-rate comparison over the in-run metrics
    series.  Silent when either side lacks a usable series: baselines
    recorded before --metrics-interval existed have none, and that must
    not degrade the gate's verdict."""
    base_rates = timeseries_phase_rates(base_record.get("timeseries"))
    cand_rates = timeseries_phase_rates(cand_record.get("timeseries"))
    if base_rates is None or cand_rates is None:
        return
    phases = len(base_rates)
    for i, (base_rate, cand_rate) in enumerate(
            zip(base_rates, cand_rates)):
        if base_rate is None or cand_rate is None or base_rate <= 0:
            continue
        compare_metric(findings, key,
                       f"ops rate phase {i + 1}/{phases}",
                       base_rate, cand_rate, args.tolerance["phase"],
                       "higher", "ops/s")


def declared_gates(findings, base, cand, workloads):
    """Each workload's gate list, as the candidate declares it."""
    base_gates = base.get("gates") or {}
    cand_gates = cand.get("gates") or {}
    for workload in workloads:
        if workload not in cand_gates:
            findings.append((
                "warn", f"{workload}: the candidate declares no gates; "
                f"only latency and timeseries are diffed"))
        elif base_gates.get(workload, cand_gates[workload]) != \
                cand_gates[workload]:
            findings.append((
                "warn", f"{workload}: the baseline declares different "
                f"gates; diffing the candidate's"))
    return cand_gates


def compare_reports(base, cand, args):
    findings = []
    base_records = index_records(base)
    cand_records = index_records(cand)

    for key in base_records.keys() - cand_records.keys():
        findings.append(
            ("warn", f"{fmt_key(key)}: in baseline but not in candidate"))
    for key in cand_records.keys() - base_records.keys():
        findings.append(
            ("warn", f"{fmt_key(key)}: in candidate but not in baseline"))

    shared = sorted(base_records.keys() & cand_records.keys(), key=fmt_key)
    gates = declared_gates(findings, base, cand, {key[0] for key in shared})
    for key in shared:
        base_record = base_records[key]
        cand_record = cand_records[key]
        for gate in gates.get(key[0], []):
            compare_gate(findings, key, gate, base_record, cand_record,
                         args)
        compare_timeseries(findings, key, base_record, cand_record,
                           args)
        base_lat = base_record.get("latency")
        cand_lat = cand_record.get("latency")
        if base_lat and cand_lat:
            compare_latency(findings, key, base_lat, cand_lat,
                            args.tolerance["latency"],
                            latency_severity(args))
        elif base_lat and not cand_lat:
            findings.append((
                "warn",
                f"{fmt_key(key)}: baseline has latency data, candidate "
                f"does not (run with --latency-sample)",
            ))

    if args.sweep:
        compare_sweeps(findings, base_records, cand_records, args)
    return findings


def compare_sweeps(findings, base_records, cand_records, args):
    """Whole-sweep latency comparison: bucket-merge every matched record
    of a (workload, structure) group on each side, then compare
    percentiles re-derived from the merged buckets.  This is how a sweep
    over threads/pins is judged as one distribution instead of
    record-by-record (where per-point noise dominates)."""
    groups = {}
    for key in base_records.keys() & cand_records.keys():
        groups.setdefault((key[0], key[1]), []).append(key)
    for (workload, structure), keys in sorted(groups.items()):
        base_merged, base_bits = merge_latency(
            [base_records[k] for k in keys])
        cand_merged, cand_bits = merge_latency(
            [cand_records[k] for k in keys])
        label = (workload, structure, "sweep", f"x{len(keys)}")
        if base_merged is None or cand_merged is None:
            findings.append((
                "warn",
                f"{fmt_key(label)}: cannot merge "
                f"({base_bits if base_merged is None else cand_bits})",
            ))
            continue
        if base_bits != cand_bits:
            findings.append((
                "warn",
                f"{fmt_key(label)}: sub_bucket_bits differ "
                f"({base_bits} vs {cand_bits}); skipping",
            ))
            continue
        for op in OPS:
            base_op = base_merged[op]
            cand_op = cand_merged[op]
            if base_op["count"] == 0 or cand_op["count"] == 0:
                continue
            for pct in PERCENTILES:
                if pct.startswith("p"):
                    p = float(pct[1:])
                    base_value = percentile_from_buckets(
                        base_op, base_bits, p)
                    cand_value = percentile_from_buckets(
                        cand_op, cand_bits, p)
                else:
                    base_value = base_op.get(pct)
                    cand_value = cand_op.get(pct)
                compare_metric(findings, label, f"{op} {pct}",
                               base_value, cand_value,
                               args.tolerance["latency"], "lower", "ns",
                               LATENCY_FLOOR_NS, latency_severity(args))


def head_to_head(report, left=HEAD_TO_HEAD[0], right=HEAD_TO_HEAD[1]):
    """Pair `left` vs `right` structure records within one report on
    (workload, pin, threads) and render each declared gate per pair.
    Returns (pair_count, lines); informational only — callers decide
    whether an empty pairing is an error."""
    benchmark = report.get("benchmark", "?")
    declared = report.get("gates") or {}
    by_struct = {}
    for record in report.get("records", []):
        by_struct.setdefault(record.get("structure", "?"), {})[
            (record.get("workload", benchmark), record.get("pin", "?"),
             record.get("threads", "?"))] = record
    left_recs = by_struct.get(left, {})
    right_recs = by_struct.get(right, {})
    pairs = sorted(left_recs.keys() & right_recs.keys(),
                   key=lambda k: tuple(str(part) for part in k))
    lines = []
    for key in pairs:
        a, b = left_recs[key], right_recs[key]
        workload, pin, threads = key
        label = f"{workload} pin={pin}/t={threads}"
        for gate in declared.get(workload, []):
            path, unit = gate["path"], gate["unit"]
            va, vb = get_path(a, path), get_path(b, path)
            kind = gate.get("kind", "scalar")
            if kind == "verdict" and va is not None and vb is not None:
                lines.append(f"{label} {path}: {left} {json.dumps(va)} vs "
                             f"{right} {json.dumps(vb)}")
            elif (kind == "scalar" and va is not None and vb
                  and va >= 0 and vb > 0):
                ratio = va / vb
                ahead = left if (ratio <= 1) == (gate["better"] == "lower") \
                    else right
                lines.append(
                    f"{label} {path}: {left} {fmt_value(va, unit)} vs "
                    f"{right} {fmt_value(vb, unit)} ({ratio:.2f}x, {ahead} "
                    f"ahead)")
            sides = [f"{name} {text}" for name, record in
                     ((left, a), (right, b))
                     if (text := context_text(record, gate))]
            if sides:
                lines.append(f"{label} {path} context: {'; '.join(sides)}")
    return len(pairs), lines


def print_findings(findings, verbose):
    tags = {"ok": "[ok]  ", "warn": "[warn]", "regression": "[REGR]"}
    for severity, message in findings:
        if severity == "ok" and not verbose:
            continue
        print(f"{tags[severity]} {message}")


# ---------------------------------------------------------------------------
# Self-test: synthetic reports through the real comparison path.  The
# fixtures declare the gates klsm_bench declares for their workloads.

def _gate(path, unit, better, kind="scalar", tolerance="rate", **extra):
    return dict(path=path, unit=unit, better=better, kind=kind,
                tolerance=tolerance, **extra)


_GATES = {
    "throughput": [_gate("ops_per_sec", "ops/s", "higher")],
    "sssp": [_gate("time_s", "s", "lower")],
    "service": [
        _gate("service.achieved_rate", "ops/s", "higher",
              match="service.arrival"),
        _gate("service.intended", "ns", "lower", "latency", "latency",
              match="service.arrival"),
        _gate("slo.pass", "bool", "higher", "verdict",
              match="service.arrival",
              context=["slo.observed_p99_ns", "slo.p99_threshold_ns",
                       "slo.achieved_rate", "slo.offered_rate"])],
    "churn": [
        _gate("ops_per_sec", "ops/s", "higher"),
        _gate("memory_timeline.rss_high_water_bytes", "B", "lower",
              tolerance="rss", requires="memory_timeline.rss_reliable"),
        _gate("memory_timeline.plateau_ok", "bool", "higher", "verdict",
              requires="memory_timeline.rss_reliable",
              context=["memory_timeline.plateau_ratio",
                       "memory_timeline.plateau_tolerance"])],
    "bnb": [
        _gate("time_to_optimum_s", "s", "lower", tolerance="search",
              floor=0.01),
        _gate("expanded", "nodes", "lower", tolerance="search"),
        _gate("bnb.match", "bool", "higher", "verdict",
              context=["bnb.best", "bnb.optimum"])],
    "des": [
        _gate("events_per_sec", "events/s", "higher"),
        _gate("des.budget_ok", "bool", "higher", "verdict",
              context=["des.violation_fraction", "des.budget"])],
    "quality": [
        _gate("mean_rank", "rank", "lower", tolerance="advisory"),
        _gate("max_rank", "rank", "lower", tolerance="advisory",
              context=["rho", "buffer_total"])],
}


def _fixture(benchmark, records):
    return {"benchmark": benchmark,
            "gates": {w: _GATES[w] for w in benchmark.split(",")},
            "records": records}


def _report(benchmark, ops_per_sec=None, latency=None, time_s=None,
            structure="klsm"):
    record = {"structure": structure, "pin": "none", "threads": 2}
    if ops_per_sec is not None:
        record["ops_per_sec"] = ops_per_sec
    if time_s is not None:
        record["time_s"] = time_s
    if latency is not None:
        record["latency"] = latency
    return _fixture(benchmark, [record])


def _latency(p50, p99, mx, count=1000):
    op = {"count": count, "mean": p50, "min": 1, "p50": p50, "p90": p99,
          "p99": p99, "p999": mx, "max": mx, "buckets": []}
    return {"unit": "ns", "sample_stride": 4, "sub_bucket_bits": 5,
            "insert": dict(op), "delete_min": dict(op)}


def self_test(args_factory, binary=None):
    failures = []

    def verify(name, ok):
        print(f"self-test {'pass' if ok else 'FAIL'}: {name}")
        if not ok:
            failures.append(name)
        return ok

    def check(name, findings, expect_regression, warns=False):
        verify(name, any(s == "regression" for s, _ in findings)
               == expect_regression
               and (not warns or any(s == "warn" for s, _ in findings)))

    args = args_factory([])

    base = _report("throughput", ops_per_sec=1e6,
                   latency=_latency(100, 500, 10000))
    check("identical reports are clean",
          compare_reports(base, base, args), False)

    slower = _report("throughput", ops_per_sec=0.5e6,
                     latency=_latency(100, 500, 10000))
    check("halved throughput regresses",
          compare_reports(base, slower, args), True)

    wiggle = _report("throughput", ops_per_sec=0.9e6,
                     latency=_latency(110, 520, 11000))
    check("noise within tolerance is clean",
          compare_reports(base, wiggle, args), False)

    lat_regr = _report("throughput", ops_per_sec=1e6,
                       latency=_latency(100, 5000, 10000))
    check("10x p99 latency regresses",
          compare_reports(base, lat_regr, args), True)

    tiny = _report("throughput", ops_per_sec=1e6,
                   latency=_latency(100, 500, 10000))
    tiny_base = _report("throughput", ops_per_sec=1e6,
                        latency=_latency(20, 60, 10000))
    # 20ns -> 100ns is a 5x blowup but under the 500ns absolute floor.
    check("sub-floor nanosecond jitter is clean",
          compare_reports(tiny_base, tiny, args), False)

    faster = _report("throughput", ops_per_sec=2e6,
                     latency=_latency(50, 250, 5000))
    check("improvement is clean",
          compare_reports(base, faster, args), False)

    missing = _fixture("throughput", [])
    check("missing record warns but does not regress",
          compare_reports(base, missing, args), False, warns=True)

    sssp_base = _report("sssp", time_s=0.1)
    sssp_slow = _report("sssp", time_s=0.5)
    check("5x sssp time regresses",
          compare_reports(sssp_base, sssp_slow, args), True)
    check("sssp self-comparison is clean",
          compare_reports(sssp_base, sssp_base, args), False)

    warn_args = args_factory(["--warn-only"])
    assert warn_args.warn_only

    # --latency-warn-only: a 10x p99 blowup only warns, but a halved
    # throughput in the same reports still regresses.
    lat_warn_args = args_factory(["--latency-warn-only"])
    lat_only = _report("throughput", ops_per_sec=1e6,
                       latency=_latency(100, 5000, 10000))
    check("latency-warn-only demotes latency regressions",
          compare_reports(base, lat_only, lat_warn_args), False,
          warns=True)
    both = _report("throughput", ops_per_sec=0.4e6,
                   latency=_latency(100, 5000, 10000))
    check("latency-warn-only still enforces throughput",
          compare_reports(base, both, lat_warn_args), True)

    # Service records: achieved_rate enforces like throughput, intended
    # percentiles enforce like latency, and an SLO pass -> fail flip is
    # a regression on its own.
    def _service_report(achieved, intended_p99, slo_pass,
                        latency_ok=True, rate_ok=True):
        op = {"count": 1000, "mean": 100.0, "min": 10, "p50": 100,
              "p90": intended_p99, "p99": intended_p99,
              "p999": intended_p99, "max": intended_p99, "buckets": []}
        fast = {"count": 1000, "mean": 50.0, "min": 10, "p50": 50,
                "p90": 60, "p99": 60, "p999": 60, "max": 60,
                "buckets": []}
        record = {
            "structure": "klsm", "pin": "none", "threads": 2,
            "ops_per_sec": achieved,
            "service": {
                "arrival": "poisson", "nominal_rate": 1e6,
                "offered_rate": 1e6, "achieved_rate": achieved,
                "scheduled_ops": 1000, "completed_ops": 1000,
                "late_ops": 0, "backlog_max": 0, "unit": "ns",
                "sub_bucket_bits": 5,
                "intended": {"insert": dict(op),
                             "delete_min": dict(op)},
                "completion": {"insert": dict(fast),
                               "delete_min": dict(fast)}},
            "slo": {"metric": "intended_p99_ns",
                    "p99_threshold_ns": 100000,
                    "min_achieved_fraction": 0.9,
                    "offered_rate": 1e6, "achieved_rate": achieved,
                    "observed_p99_ns": intended_p99,
                    "latency_ok": latency_ok, "rate_ok": rate_ok,
                    "pass": slo_pass}}
        return _fixture("service", [record])

    svc_base = _service_report(1e6, 5000, True)
    check("service self-comparison is clean",
          compare_reports(svc_base, svc_base, args), False)

    svc_slow = _service_report(0.5e6, 5000, True)
    check("halved achieved_rate regresses",
          compare_reports(svc_base, svc_slow, args), True)

    svc_flip = _service_report(1e6, 200000, False, latency_ok=False)
    check("slo pass -> fail flip regresses",
          compare_reports(svc_base, svc_flip, args), True)

    svc_fail_base = _service_report(1e6, 200000, False, latency_ok=False)
    check("slo failing on both sides does not regress",
          compare_reports(svc_fail_base, svc_fail_base, args), False,
          warns=True)

    # --latency-warn-only: a 50x intended p99 blowup demotes to a
    # warning, but a halved achieved_rate in the same report still
    # regresses (overload is never advisory).
    svc_lat = _service_report(1e6, 250000, True)
    check("latency-warn-only demotes intended-p99 regressions",
          compare_reports(svc_base, svc_lat, lat_warn_args), False,
          warns=True)
    svc_both = _service_report(0.4e6, 250000, True)
    check("latency-warn-only still enforces achieved_rate",
          compare_reports(svc_base, svc_both, lat_warn_args), True)
    svc_spike = _service_report(0.1e6, 250000, False)
    svc_spike["records"][0]["service"]["arrival"] = "spike"
    check("a changed arrival process skips the service gates",
          compare_reports(svc_base, svc_spike, args), False, warns=True)

    # Churn records: throughput enforces, the RSS high-water gate
    # enforces only when both sides sampled RSS reliably, and a
    # plateau ok -> FAIL flip is a regression on its own.
    def _churn_report(ops_per_sec, rss_hw, reliable=True,
                      plateau_ok=True):
        record = {
            "structure": "klsm", "pin": "none", "threads": 2,
            "ops_per_sec": ops_per_sec,
            "memory_timeline": {
                "rss_reliable": reliable,
                "shrink_events": 3,
                "rss_high_water_bytes": rss_hw,
                "steady_rss_high_water_bytes": rss_hw,
                "final_rss_bytes": rss_hw // 2,
                "pool_high_water_bytes": rss_hw // 2,
                "plateau_tolerance": 0.25,
                "plateau_ratio": 2.0 if not plateau_ok else 0.5,
                "plateau_ok": plateau_ok,
                "phases": [], "samples": []}}
        return _fixture("churn", [record])

    churn_base = _churn_report(1e6, 100 << 20)
    check("churn self-comparison is clean",
          compare_reports(churn_base, churn_base, args), False)
    check("halved churn throughput regresses",
          compare_reports(churn_base, _churn_report(0.4e6, 100 << 20),
                          args), True)
    check("doubled RSS high-water regresses",
          compare_reports(churn_base, _churn_report(1e6, 200 << 20),
                          args), True)
    check("RSS growth within tolerance is clean",
          compare_reports(churn_base, _churn_report(1e6, 120 << 20),
                          args), False)
    check("unreliable RSS demotes the footprint gate",
          compare_reports(churn_base,
                          _churn_report(1e6, 200 << 20, reliable=False),
                          args), False, warns=True)
    check("plateau ok -> FAIL flip regresses",
          compare_reports(churn_base,
                          _churn_report(1e6, 100 << 20,
                                        plateau_ok=False), args), True)

    # bnb records: the search scalars only regress past the loose
    # --search-tolerance, and losing the optimum is always a
    # regression.  Records carry their own `workload` field, so a
    # combined "bnb,des" report keys each record by its workload.
    def _bnb_report(expanded, t_opt, match=True):
        record = {"workload": "bnb", "structure": "klsm",
                  "pin": "none", "threads": 2,
                  "expanded": expanded, "time_to_optimum_s": t_opt,
                  "ops_per_sec": 1e6,
                  "bnb": {"items": 30, "capacity": 7000,
                          "optimum": 5000,
                          "best": 5000 if match else 4990,
                          "match": match, "expanded": expanded,
                          "wasted_expansions": expanded // 2,
                          "pruned_pops": 100, "pushed": expanded + 100,
                          "failed_pops": 0,
                          "time_to_optimum_s": t_opt}}
        return _fixture("bnb", [record])

    bnb_base = _bnb_report(1000, 0.1)
    check("bnb self-comparison is clean",
          compare_reports(bnb_base, bnb_base, args), False)
    check("3x expanded nodes regresses",
          compare_reports(bnb_base, _bnb_report(3000, 0.1), args), True)
    check("expanded growth within search tolerance is clean",
          compare_reports(bnb_base, _bnb_report(1800, 0.1), args),
          False)
    check("3x time-to-optimum regresses",
          compare_reports(bnb_base, _bnb_report(1000, 0.3), args), True)
    check("5x time-to-optimum under the 10 ms floor is clean",
          compare_reports(_bnb_report(1000, 0.001),
                          _bnb_report(1000, 0.005), args), False)
    check("match true -> false flip regresses",
          compare_reports(bnb_base, _bnb_report(1000, 0.1, match=False),
                          args), True)

    # des records: commit rate enforces like throughput; the violation
    # budget flipping ok -> over is a regression on its own.
    def _des_report(events_per_sec, budget_ok=True):
        record = {"workload": "des", "structure": "klsm",
                  "pin": "none", "threads": 2,
                  "ops_per_sec": events_per_sec,
                  "events_per_sec": events_per_sec,
                  "des": {"lps": 256, "population": 8192,
                          "target_events": 200000,
                          "committed": 200000, "scheduled": 200000,
                          "failed_pops": 0,
                          "violations": 1000 if budget_ok else 80000,
                          "violation_fraction":
                              0.005 if budget_ok else 0.4,
                          "lookahead": 0, "mean_delay": 64,
                          "budget": 0.15, "budget_ok": budget_ok,
                          "max_lag": 100, "virtual_time": 10 ** 7}}
        return _fixture("des", [record])

    des_base = _des_report(1e6)
    check("des self-comparison is clean",
          compare_reports(des_base, des_base, args), False)
    check("halved events/sec regresses",
          compare_reports(des_base, _des_report(0.5e6), args), True)
    check("budget ok -> over flip regresses",
          compare_reports(des_base, _des_report(1e6, budget_ok=False),
                          args), True)
    des_fail = _des_report(1e6, budget_ok=False)
    check("budget over on both sides does not regress",
          compare_reports(des_fail, des_fail, args), False, warns=True)

    # Combined-selection keying: a "bnb,des" report pairs each record
    # with its same-workload twin, so a des rate collapse is found even
    # though the report-level benchmark string matches neither record.
    combined_base = _fixture("bnb,des",
                             [_bnb_report(1000, 0.1)["records"][0],
                              _des_report(1e6)["records"][0]])
    combined_slow = _fixture("bnb,des",
                             [_bnb_report(1000, 0.1)["records"][0],
                              _des_report(0.4e6)["records"][0]])
    check("combined bnb,des reports key records by workload",
          compare_reports(combined_base, combined_slow, args), True)
    check("combined bnb,des self-comparison is clean",
          compare_reports(combined_base, combined_base, args), False)

    # Timeseries phase gate: cumulative-ops series differenced into
    # per-phase rates; a collapse confined to one quarter of the run
    # regresses even though the run-wide ops_per_sec mean barely moves,
    # and records without a series skip the gate silently.
    def _ts_report(phase_rates, ops_per_sec=1e6):
        samples = [[0.0, 0.0]]
        t, ops = 0.0, 0.0
        for rate in phase_rates:
            for _ in range(5):
                t += 0.1
                ops += rate * 0.1
                samples.append([round(t, 6), ops])
        record = {"structure": "klsm", "pin": "none", "threads": 2,
                  "ops_per_sec": ops_per_sec,
                  "timeseries": {"requested_interval_ms": 100.0,
                                 "interval_ms": 100.0,
                                 "columns": [{"name": "ops",
                                              "kind": "counter"}],
                                 "samples": samples}}
        return _fixture("throughput", [record])

    rates = timeseries_phase_rates(
        _ts_report([1e6, 2e6, 3e6, 4e6])["records"][0]["timeseries"])
    verify("phase rates re-derive from the cumulative counter",
           rates is not None and len(rates) == 4
           and all(abs(r - e) < 1.0
                   for r, e in zip(rates, (1e6, 2e6, 3e6, 4e6))))

    ts_base = _ts_report([1e6, 1e6, 1e6, 1e6])
    check("timeseries self-comparison is clean",
          compare_reports(ts_base, ts_base, args), False)
    # Whole-run mean drops only 17% (within the 25% throughput gate);
    # the last quarter alone dropped 70%.
    ts_tail = _ts_report([1e6, 1e6, 1e6, 0.3e6], ops_per_sec=0.83e6)
    check("phase-localized collapse regresses",
          compare_reports(ts_base, ts_tail, args), True)
    ts_wiggle = _ts_report([0.9e6, 1.05e6, 0.95e6, 0.8e6],
                           ops_per_sec=0.92e6)
    check("per-phase noise within tolerance is clean",
          compare_reports(ts_base, ts_wiggle, args), False)
    no_ts = _report("throughput", ops_per_sec=1e6)
    findings = compare_reports(ts_base, no_ts, args)
    check("candidate without a timeseries skips the phase gate",
          findings, False)
    if any("phase" in message for _, message in findings):
        print("self-test FAIL: missing timeseries still produced phase "
              "findings")
        failures.append("phase-silent-skip")

    # Bucket math round-trip against the C++ layout: every index in the
    # first few groups maps back into its own [lower, upper] range.
    for sub_bits in (1, 5, 8):
        for index in range(0, (1 << sub_bits) * 8):
            lo = bucket_lower(index, sub_bits)
            hi = bucket_upper(index, sub_bits)
            if not (lo <= hi):
                print(f"self-test FAIL: bucket {index} empty range")
                failures.append("bucket-range")
                break

    # Percentile re-derivation: a histogram with 100 width-1 samples.
    op = {"count": 100, "max": 99,
          "buckets": [[i, 1] for i in range(100)]}
    for p, expect in ((1, 0), (50, 49), (100, 99)):
        got = percentile_from_buckets(op, 5, p)
        # width-1 buckets only exist below 2^(sub_bits+1); above that the
        # upper edge is coarser, hence <=.
        if not (expect <= got <= bucket_upper(got, 5)):
            print(f"self-test FAIL: p{p} -> {got}, expected ~{expect}")
            failures.append(f"percentile-p{p}")

    # Bucket merge: two disjoint halves must re-derive the same
    # percentiles as the all-in-one histogram (the C++ merge oracle).
    half_a = {"count": 50, "mean": 24.5, "min": 0, "max": 49,
              "buckets": [[i, 1] for i in range(50)]}
    half_b = {"count": 50, "mean": 74.5, "min": 50, "max": 99,
              "buckets": [[i, 1] for i in range(50, 100)]}
    merged = merge_op_stats([half_a, half_b])
    ok = (merged["count"] == 100 and merged["min"] == 0
          and merged["max"] == 99
          and abs(merged["mean"] - 49.5) < 1e-9)
    for p in (1, 50, 100):
        if percentile_from_buckets(merged, 5, p) != \
                percentile_from_buckets(op, 5, p):
            ok = False
    # Overlapping buckets must add counts, not duplicate entries.
    overlap = merge_op_stats([half_a, half_a])
    if overlap["count"] != 100 or overlap["buckets"] != \
            [(i, 2) for i in range(50)]:
        ok = False
    verify("bucket merge matches the all-in-one oracle", ok)

    # Whole-sweep comparison: per-record percentiles are identical (and
    # clean), but the merged distribution shifted an octave — only
    # --sweep sees it.
    def _sweep_report(bucket_index):
        records = []
        for threads in (1, 2):
            rec_op = {"count": 100, "mean": 50.0, "min": 1, "p50": 1,
                      "p90": 1, "p99": 1, "p999": 1, "max": 40000,
                      "buckets": [[bucket_index, 100]]}
            records.append({
                "structure": "klsm", "pin": "none", "threads": threads,
                "latency": {"unit": "ns", "sample_stride": 4,
                            "sub_bucket_bits": 5,
                            "insert": dict(rec_op),
                            "delete_min": dict(rec_op)}})
        return _fixture("throughput", records)

    sweep_args = args_factory(["--sweep"])
    sweep_base = _sweep_report(10)     # ~10ns bucket
    sweep_slow = _sweep_report(200)    # ~1.3us bucket
    check("sweep self-comparison is clean",
          compare_reports(sweep_base, sweep_base, sweep_args), False)
    check("sweep-merged octave shift regresses",
          compare_reports(sweep_base, sweep_slow, sweep_args), True)
    check("without --sweep the same shift passes record checks",
          compare_reports(sweep_base, sweep_slow, args), False)

    # Head-to-head: klsm and multiqueue records in ONE report pair on
    # (workload, pin, threads); every declared gate renders; a report
    # with no rival records yields zero pairs.
    h2h_report = _fixture("throughput", [
        {"structure": "klsm", "pin": "none", "threads": 2,
         "ops_per_sec": 2e6},
        {"structure": "multiqueue", "pin": "none", "threads": 2,
         "ops_per_sec": 1e6},
        {"structure": "klsm", "pin": "none", "threads": 4,
         "ops_per_sec": 3e6},
    ])
    pairs, lines = head_to_head(h2h_report)
    verify("head-to-head throughput pairing",
           pairs == 1 and len(lines) == 1 and "2.00x" in lines[0]
           and "klsm ahead" in lines[0])

    h2h_quality = _fixture("quality", [
        {"structure": "klsm", "pin": "none", "threads": 2,
         "mean_rank": 4.0, "max_rank": 40, "rho": 224,
         "buffer_total": 20},
        {"structure": "multiqueue", "pin": "none", "threads": 2,
         "mean_rank": 8.0, "max_rank": 400},
    ])
    pairs, lines = head_to_head(h2h_quality)
    verify("head-to-head quality pairing carries bounds",
           pairs == 1 and len(lines) == 3
           and any("mean_rank" in l and "klsm ahead" in l for l in lines)
           and any("rho=224" in l and "buffer_total=20" in l
                   for l in lines))

    pairs, _ = head_to_head(h2h_quality, "klsm", "linden")
    verify("head-to-head with no rival records pairs nothing", pairs == 0)

    if binary:
        check_real_reports(binary, args, verify, check)


    if failures:
        print(f"self-test: {len(failures)} failure(s)")
        return 1
    print("self-test: all checks passed")
    return 0


def _set_path(record, path, value):
    *parents, leaf = path.split(".")
    for part in parents:
        record = record[part]
    record[leaf] = value


def _worsen(value, gate, floor):
    """A value 10x worse than `value`, past the gate's floor."""
    if gate["better"] == "higher":
        return value / 10
    return (value + floor) * 10


def check_real_reports(binary, args, verify, check):
    """Run every workload klsm_bench registers once at smoke scale and
    check its declarations against the real report: every declared path
    resolves, the report diffs clean against itself, and a copy with
    any one enforcing gate worsened 10x (a verdict: flipped) is flagged
    — as a regression, or as a warning where the gate's `requires`
    field is false in the run (sanitizer builds sample RSS
    unreliably)."""
    probe = subprocess.run([binary, "--workload", "?"],
                           capture_output=True, text=True)
    listed = re.search(r"registered: ([^)]*)\)", probe.stderr)
    if not verify("klsm_bench lists its registered workloads", listed):
        return
    workloads = [w.strip() for w in listed.group(1).split(",")]
    run = subprocess.run(
        [binary, "--workload", ",".join(workloads), "--structure", "klsm",
         "--smoke", "--json-out", "-"],
        capture_output=True, text=True)
    if not verify("klsm_bench smoke run of every workload succeeds",
                  run.returncode == 0):
        print(run.stderr)
        return
    report = json.loads(run.stdout)
    check("real report of every workload diffs clean against itself",
          compare_reports(report, report, args), False)

    for workload in workloads:
        gates = (report.get("gates") or {}).get(workload) or []
        records = [r for r in report["records"]
                   if r.get("workload") == workload]
        paths = [p for g in gates for p in
                 (g["path"], g.get("requires"), g.get("match"),
                  *g.get("context", [])) if p]
        if not verify(f"real {workload} report declares resolvable gates",
                      gates and records
                      and all(g.get("kind", "scalar") in
                              ("scalar", "verdict", "latency")
                              and g["better"] in ("higher", "lower")
                              and (g.get("tolerance", "rate") in TOLERANCES
                                   or g.get("tolerance") == "advisory")
                              for g in gates)
                      and all(get_path(r, p) is not None
                              for r in records for p in paths)):
            continue
        for gate in gates:
            if gate.get("tolerance") == "advisory":
                continue
            base, cand = copy.deepcopy(report), copy.deepcopy(report)
            for b, c in zip(base["records"], cand["records"]):
                if b.get("workload") != workload:
                    continue
                value = get_path(b, gate["path"])
                if gate.get("kind") == "verdict":
                    good = gate["better"] == "higher"
                    _set_path(b, gate["path"], good)
                    _set_path(c, gate["path"], not good)
                elif gate.get("kind") == "latency":
                    for op in OPS:
                        for pct in PERCENTILES:
                            _set_path(c, f"{gate['path']}.{op}.{pct}",
                                      _worsen(value[op][pct], gate,
                                              LATENCY_FLOOR_NS))
                else:
                    value = max(value, 0)
                    _set_path(b, gate["path"], value)
                    _set_path(c, gate["path"],
                              _worsen(value, gate, gate.get("floor", 0)))
            need = gate.get("requires")
            demoted = bool(need) and not all(get_path(r, need)
                                             for r in records)
            check(f"real {workload} report: worsened {gate['path']} "
                  + (f"warns while {need} is false" if demoted
                     else "regresses"),
                  compare_reports(base, cand, args), not demoted,
                  warns=demoted)


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("baseline", nargs="?",
                        help="baseline klsm_bench JSON report")
    parser.add_argument("candidate", nargs="?",
                        help="candidate klsm_bench JSON report")
    parser.add_argument("--throughput-tolerance", type=float,
                        default=TOLERANCES["rate"],
                        help="allowed fractional worsening of the gates "
                             "in the `rate` tolerance class")
    parser.add_argument("--latency-warn-only", action="store_true",
                        help="latency percentile regressions warn "
                             "instead of failing (every other gate stays "
                             "enforcing)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but always exit 0")
    parser.add_argument("--sweep", action="store_true",
                        help="additionally bucket-merge all matched "
                             "records per (workload, structure) and "
                             "compare whole-sweep percentiles")
    parser.add_argument("--verbose", action="store_true",
                        help="also print non-regressed comparisons")
    parser.add_argument("--head-to-head", action="store_true",
                        help="diff klsm against multiqueue within ONE "
                             "report (informational; pairs records on "
                             "workload+pin+threads)")
    parser.add_argument("--self-test", nargs="?", const="",
                        metavar="KLSM_BENCH",
                        help="run the built-in check suite and exit; "
                             "given a klsm_bench binary, also check every "
                             "workload's gates against its real report")
    return parser


def parse_args(argv):
    args = build_parser().parse_args(argv)
    args.tolerance = dict(TOLERANCES, rate=args.throughput_tolerance)
    return args


def main(argv):
    args = parse_args(argv)
    if args.self_test is not None:
        return self_test(parse_args, args.self_test)
    if args.head_to_head:
        if not args.baseline or args.candidate:
            build_parser().error(
                "--head-to-head takes exactly one report")
        pairs, lines = head_to_head(load_report(args.baseline))
        for line in lines:
            print(f"[h2h]  {line}")
        if not pairs:
            print(f"compare_bench: no {HEAD_TO_HEAD} record pairs in "
                  f"{args.baseline}")
            return 1
        print(f"compare_bench: head-to-head over {pairs} pair(s)")
        return 0
    if not args.baseline or not args.candidate:
        build_parser().error("baseline and candidate reports are required")

    base = load_report(args.baseline)
    cand = load_report(args.candidate)
    findings = compare_reports(base, cand, args)
    print_findings(findings, args.verbose)

    regressions = sum(1 for s, _ in findings if s == "regression")
    compared = len(findings)
    if regressions:
        print(f"compare_bench: {regressions} regression(s) across "
              f"{compared} comparison(s)"
              + (" [warn-only: exiting 0]" if args.warn_only else ""))
        return 0 if args.warn_only else 1
    print(f"compare_bench: no regressions across {compared} "
          f"comparison(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
