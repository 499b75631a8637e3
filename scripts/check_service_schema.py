#!/usr/bin/env python3
"""Validate the `service` and `slo` objects in klsm_bench JSON.

Schema (README "Service mode & SLOs"): every record of a
--workload service report must carry

    "service": {
      "arrival": "steady" | "poisson" | "spike" | "diurnal",
      "nominal_rate", "offered_rate", "achieved_rate", "duration_s",
      "scheduled_ops", "completed_ops", "late_ops", "late_grace_ns",
      "max_lateness_ns", "mean_lateness_ns", "backlog_max",
      "unit": "ns", "sub_bucket_bits",
      "intended":   {"insert": {count, mean, min, p50, p90, p99, p999,
                                max, dropped_intervals, buckets},
                     "delete_min": {same}},
      "completion": {same shape}
    },
    "slo": {
      "metric": "intended_p99_ns", "p99_threshold_ns",
      "min_achieved_fraction", "offered_rate", "achieved_rate",
      "observed_p99_ns", "latency_ok", "rate_ok", "pass"
      [, "sustainable_rate", "probes"]
    }

with the open-loop invariants that make the telemetry trustworthy:

  * scheduled_ops == completed_ops (catch-up semantics never shed
    load — a shortfall would mean the harness silently dropped
    arrivals, which is exactly the coordinated omission it exists to
    prevent);
  * per op kind, intended and completion histograms hold the same
    number of samples, and every intended percentile >= its completion
    twin (each intended sample dominates its completion sample
    pointwise: arrival <= op start);
  * slo.observed_p99_ns equals the worst per-op intended p99, and
    slo.pass == latency_ok && rate_ok.

Usage:
    check_service_schema.py report.json [report2.json ...]
    check_service_schema.py --bench path/to/klsm_bench

The --bench mode runs the service acceptance command end to end
(--workload service --structure klsm,dlsm --arrival poisson
--rate 500000 --smoke --json-out -) and validates its stdout; CTest
invokes it so the JSON wiring is covered by `ctest -L tier1`.
"""

import json
import subprocess
import sys

ARRIVALS = ("steady", "poisson", "spike", "diurnal")
OPS = ("insert", "delete_min")
PERCENTILE_FIELDS = ("p50", "p90", "p99", "p999")
OP_FIELDS = ("count", "mean", "min", "max",
             "dropped_intervals") + PERCENTILE_FIELDS
RATE_FIELDS = ("nominal_rate", "offered_rate", "achieved_rate")
COUNTER_FIELDS = ("scheduled_ops", "completed_ops", "late_ops",
                  "late_grace_ns", "max_lateness_ns", "backlog_max")


def check_op_stats(where, op_stats):
    for field in OP_FIELDS:
        assert field in op_stats, f"{where}.{field} missing"
        value = op_stats[field]
        assert isinstance(value, (int, float)) and value >= 0, \
            f"{where}.{field} = {value!r} is not a non-negative number"
    if op_stats["count"] > 0:
        assert op_stats["min"] <= op_stats["max"], \
            f"{where}: min exceeds max"
        prev = op_stats["min"]
        for pct in PERCENTILE_FIELDS:
            assert prev <= op_stats[pct] <= op_stats["max"], \
                f"{where}.{pct} = {op_stats[pct]} outside " \
                f"[{prev}, {op_stats['max']}] (percentiles must be " \
                f"monotone)"
            prev = op_stats[pct]
    for entry in op_stats.get("buckets", []):
        assert (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(x, int) and x >= 0 for x in entry)), \
            f"{where}.buckets entry {entry!r} malformed"


def check_service(where, svc):
    assert svc.get("arrival") in ARRIVALS, \
        f"{where}.arrival = {svc.get('arrival')!r}"
    for field in RATE_FIELDS + ("duration_s", "mean_lateness_ns"):
        value = svc.get(field)
        assert isinstance(value, (int, float)) and value >= 0, \
            f"{where}.{field} = {value!r} is not a non-negative number"
    for field in COUNTER_FIELDS:
        value = svc.get(field)
        assert isinstance(value, int) and value >= 0, \
            f"{where}.{field} = {value!r} is not a non-negative integer"
    assert svc.get("unit") == "ns", f"{where}.unit != 'ns'"
    assert isinstance(svc.get("sub_bucket_bits"), int), \
        f"{where}.sub_bucket_bits missing"
    # Catch-up semantics: every scheduled arrival is served, always.
    assert svc["completed_ops"] == svc["scheduled_ops"], \
        f"{where}: completed_ops {svc['completed_ops']} != " \
        f"scheduled_ops {svc['scheduled_ops']} (open-loop harness " \
        f"shed load)"
    assert svc["late_ops"] <= svc["scheduled_ops"], \
        f"{where}: more late ops than scheduled ops"
    assert svc["backlog_max"] <= svc["scheduled_ops"], \
        f"{where}: backlog deeper than the whole schedule"
    if svc["late_ops"] > 0:
        assert svc["max_lateness_ns"] >= svc["late_grace_ns"], \
            f"{where}: late ops recorded but max lateness is within " \
            f"the grace window"
        assert svc["mean_lateness_ns"] <= svc["max_lateness_ns"], \
            f"{where}: mean lateness exceeds max"
    for which in ("intended", "completion"):
        block = svc.get(which)
        assert isinstance(block, dict), f"{where}.{which} missing"
        for op in OPS:
            assert op in block, f"{where}.{which}.{op} missing"
            check_op_stats(f"{where}.{which}.{op}", block[op])
    for op in OPS:
        intended = svc["intended"][op]
        completion = svc["completion"][op]
        # Both recorders see exactly the served ops, stride 1.
        assert intended["count"] == completion["count"], \
            f"{where}.{op}: intended count {intended['count']} != " \
            f"completion count {completion['count']}"
        if intended["count"] == 0:
            continue
        # Arrival-to-completion dominates start-to-completion pointwise
        # (arrival <= op start), so every percentile is ordered — the
        # coordinated-omission signal the mode exists to expose.
        for pct in PERCENTILE_FIELDS + ("max", "min"):
            assert intended[pct] >= completion[pct], \
                f"{where}.{op}.{pct}: intended {intended[pct]} < " \
                f"completion {completion[pct]} (intended-start must " \
                f"dominate service time)"


def check_slo(where, slo, svc):
    assert slo.get("metric") == "intended_p99_ns", \
        f"{where}.metric = {slo.get('metric')!r}"
    for field in ("p99_threshold_ns", "min_achieved_fraction",
                  "offered_rate", "achieved_rate", "observed_p99_ns"):
        value = slo.get(field)
        assert isinstance(value, (int, float)) and value >= 0, \
            f"{where}.{field} = {value!r} is not a non-negative number"
    assert 0 < slo["min_achieved_fraction"] <= 1, \
        f"{where}.min_achieved_fraction outside (0, 1]"
    for field in ("latency_ok", "rate_ok", "pass"):
        assert isinstance(slo.get(field), bool), \
            f"{where}.{field} missing or not a bool"
    assert slo["pass"] == (slo["latency_ok"] and slo["rate_ok"]), \
        f"{where}: pass disagrees with latency_ok && rate_ok"
    worst = max((svc["intended"][op]["p99"] for op in OPS
                 if svc["intended"][op]["count"] > 0), default=0)
    assert slo["observed_p99_ns"] == worst, \
        f"{where}.observed_p99_ns = {slo['observed_p99_ns']} but the " \
        f"worst per-op intended p99 is {worst}"
    if "sustainable_rate" in slo:
        assert isinstance(slo["sustainable_rate"], (int, float)) \
            and slo["sustainable_rate"] >= 0
        probes = slo.get("probes")
        assert isinstance(probes, list) and probes, \
            f"{where}: sustainable_rate without probes"
        passing = [r for r, ok in probes if ok]
        assert slo["sustainable_rate"] == (max(passing) if passing
                                           else 0), \
            f"{where}: sustainable_rate is not the best passing probe"


def check_report(report, path):
    assert report.get("benchmark") == "service", \
        f"{path}: benchmark meta = {report.get('benchmark')!r}"
    assert report.get("arrival") in ARRIVALS, \
        f"{path}: arrival meta = {report.get('arrival')!r}"
    checked = 0
    for record in report.get("records", []):
        structure = record.get("structure", "?")
        where = f"{path}:{structure}"
        assert "service" in record, f"{where}: no service object"
        assert "slo" in record, f"{where}: no slo object"
        svc = record["service"]
        check_service(f"{where}.service", svc)
        check_slo(f"{where}.slo", record["slo"], svc)
        assert svc["arrival"] == report["arrival"], \
            f"{where}: record arrival disagrees with the meta"
        checked += 1
    assert checked, f"{path}: no service records"
    return checked


def main(argv):
    if len(argv) >= 2 and argv[0] == "--bench":
        cmd = [argv[1], "--workload", "service", "--structure",
               "klsm,dlsm", "--arrival", "poisson", "--rate",
               "500000", "--smoke", "--json-out", "-"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, check=True)
        checked = check_report(json.loads(out.stdout), "<bench stdout>")
        print(f"service schema OK: acceptance run, {checked} record(s)")
        return 0
    if not argv:
        print(__doc__)
        return 2
    for path in argv:
        with open(path) as f:
            report = json.load(f)
        checked = check_report(report, path)
        print(f"service schema OK: {path} ({checked} record(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
