#!/usr/bin/env python3
"""Check klsm_bench reports and traces against the schema they declare.

klsm_bench writes a `schema` meta block beside `gates`: specs of the
meta fields, of each selected workload's record fields (plus the shared
blocks its records may carry), and of the shared `latency`, `memory`,
`memory_timeline` and `timeseries` blocks.  A spec
(src/harness/reporter.hpp) is whitespace-separated `path:type[:unit]`
declarations; "[]" in a path steps into every list element, a trailing
"?" marks a field that may be absent, and a type is count, number,
ratio, bool, string or enum=a|b.  A record carries a shared block
exactly when its workload declares it and the meta switches it on
(CARRIED), and the block is checked there.  A Chrome-trace file (--trace-out) is recognised by
its `traceEvents` and checked against TRACE_SCHEMA.  A document that
passes its schema then runs the named cross-field INVARIANTS.

    check_report.py REPORT_OR_TRACE.json [...]
    check_report.py --bench KLSM_BENCH SECTION [--smoke]
    check_report.py --self-test KLSM_BENCH

--bench runs a section's acceptance commands and checks their output:
memory (--alloc-stats under each --reclaim policy, which must reach
the meta and the klsm records), churn (the soak at
real scale, where the plateau verdict holds; --smoke runs a miniature),
service, trace (stdout stays one JSON document with tracing on),
workloads (bnb and des, plus a k-sensitivity probe) and pin (--pin
affinity under a one-CPU mask reports cpus 1 and no pin failures).
--self-test checks one smoke report of every registered workload, every
optional block on, and a traced service-only run; then it breaks them
one at a time (each declared field missing, each of the wrong type,
each block dropped or added, one value per invariant, --alloc-stats
off) and checks that every broken copy fails.
"""

import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile

FAMILY = ("klsm", "dlsm")  # the pool-backed structures
OPS = ("insert", "delete_min")
PERCENTILES = ("min", "p50", "p90", "p99", "p999", "max")


def _number(v):
    return type(v) in (int, float) and math.isfinite(v) and v >= 0


TYPES = {
    "count": lambda v, d: type(v) is int and v >= 0,
    "number": lambda v, d: _number(v),
    "ratio": lambda v, d: _number(v) and v <= 1,
    "bool": lambda v, d: type(v) is bool,
    "string": lambda v, d: isinstance(v, str) and v != "",
    "enum": lambda v, d: isinstance(v, str) and v in d["values"],
}


def parse(spec):
    """The declarations of a spec: `path[?]:type[=a|b][:unit]` words."""
    decls = []
    for word in spec.split():
        path, type_, unit = (word.split(":", 2) + [""])[:3]
        type_, _, values = type_.partition("=")
        decls.append({"path": path.rstrip("?"), "type": type_, "unit": unit,
                      "values": values.split("|"),
                      "optional": path.endswith("?"),
                      "steps": re.findall(r"\[\]|[^.\[\]?]+", path)})
    return decls


# The exporter's subset of the Chrome trace-event format
# (src/trace/trace_export.hpp): spans, instants, counters, metadata.
TRACE_SCHEMA = (
    "traceEvents[].name:string traceEvents[].ph:enum=X|i|C|M "
    "traceEvents[].pid:count traceEvents[].tid:count "
    "traceEvents[].ts:number:us traceEvents[].dur?:number:us "
    "traceEvents[].s?:enum=t|p|g otherData.recorded_events:count:events "
    "otherData.dropped_events:count:events otherData.threads:count:threads")


def locate(node, path, where=""):
    """Yield (container, key, location) for every value `path` reaches
    in `node`; key is None where a step finds nothing."""
    step, rest = path[0], path[1:]
    if step == "[]":
        assert isinstance(node, list), f"{where} is not a list"
        keys = range(len(node))
    else:
        key = int(step) if step.isdigit() else step
        if not (isinstance(node, dict) and key in node
                or isinstance(node, list) and isinstance(key, int)
                and key < len(node)):
            yield node, None, f"{where}.{step}"
            return
        keys = [key]
    for k in keys:
        loc = f"{where}[{k}]" if step == "[]" else f"{where}.{k}"
        if rest:
            yield from locate(node[k], rest, loc)
        else:
            yield node, k, loc


def check_fields(doc, spec, where=""):
    for d in parse(spec):
        for parent, key, loc in locate(doc, d["steps"], where):
            if key is None:
                assert d.get("optional"), f"{loc[1:]} missing"
            else:
                assert TYPES[d["type"]](parent[key], d), \
                    f"{loc[1:]} = {parent[key]!r} is not a {d['type']}"


# When a record whose workload declares a shared block carries it: the
# meta flag that turns the block on, and for `memory` the pool-backed
# structures, the only ones with pool telemetry.  Other blocks are always
# carried.
CARRIED = {
    "latency": lambda report, r: report["latency_sample"] > 0,
    "timeseries": lambda report, r: report["metrics_interval_ms"] > 0,
    "memory": lambda report, r: report["alloc_stats"]
    and r["structure"] in FAMILY,
}


def check_record(record, report):
    schema = report["schema"]
    entry = schema["workloads"].get(record.get("workload"))
    assert entry, f"workload {record.get('workload')!r} declares no schema"
    check_fields(record, entry["fields"])
    declared = entry["blocks"].split()
    for block, spec in schema["blocks"].items():
        expect = block in declared and \
            CARRIED.get(block, lambda *_: True)(report, record)
        if expect:
            assert isinstance(record.get(block), dict), f"{block} missing"
            check_fields(record[block], spec, f".{block}")
        else:
            assert block not in record, f"{block} unexpected"


# ---------------------------------------------------------------------------
# Named cross-field invariants.  Each has a scope (the items of a report
# or trace it applies to) and a breaker, or a tuple of them (each
# corrupts one such item so that the invariant, and no schema type,
# fails); the self-test uses the breakers.

INVARIANTS = {}


def invariant(scope, breaks):
    def register(fn):
        INVARIANTS[fn.__name__] = (scope, fn, breaks)
        return fn
    return register


def records(doc, workload=None, structures=None):
    return [r for r in doc.get("records", [])
            if workload in (None, r["workload"])
            and (structures is None or r["structure"] in structures)]


def carried(block):
    """The scope of every `block` the records of a document carry."""
    return lambda doc: [r[block] for r in records(doc) if block in r]


def pools(doc):
    return [m["pools"] for m in carried("memory")(doc)]


def latency_ops(doc):
    """Every latency-shaped op block that holds samples."""
    blocks = carried("latency")(doc)
    blocks += [r["service"][w] for r in records(doc, "service")
               for w in ("intended", "completion")]
    return [b[op] for b in blocks for op in OPS if b[op]["count"] > 0]


def bump(d, key):
    d[key] += 1


def flip(d, key):
    d[key] = not d[key]


@invariant(lambda d: [d] if "records" in d else [],
           lambda d: d.update(benchmark=d["benchmark"] + ",none"))
def workload_selection(report):
    """Every selected workload wrote records, and only those did."""
    selected = report["benchmark"].split(",")
    seen = {r["workload"] for r in report["records"]}
    assert seen <= set(selected), f"records of {seen - set(selected)}"
    assert set(selected) <= seen, f"no records of {set(selected) - seen}"


@invariant(lambda d: [(d["reclaim"], p) for ps in pools(d)
                      for p in ps.values()],
           lambda item: bump(item[1], "page_aligned_chunks"))
def page_aligned(item):
    """Exactly the chunks of a shrinking policy are whole pages."""
    reclaim, pool = item
    expect = pool["chunks"] if reclaim == "full" else 0
    assert pool["page_aligned_chunks"] == expect, \
        f"page_aligned_chunks {pool['page_aligned_chunks']} under " \
        f"--reclaim {reclaim}, expected {expect}"


@invariant(lambda d: [p for ps in pools(d) for p in ps.values()],
           lambda p: p.update(reclaimed_chunks=p["chunks"] + 1))
def pool_bounds(pool):
    """Released memory is a part of what the pool holds."""
    assert pool["reclaimed_chunks"] <= pool["chunks"], "reclaimed > chunks"
    assert pool["released_bytes"] <= pool["bytes"], "released > bytes"
    assert pool["chunks"] == 0 or pool["bytes"] > 0, "chunks without bytes"


@invariant(pools, lambda ps: bump(ps["dist_blocks"], "fresh_allocs"))
def block_pools(ps):
    """The DistLSM pools keep the paper's four-blocks-per-level bound,
    and block pools allocate one block per fresh acquire."""
    assert ps["dist_blocks"]["growth_beyond_bound"] == 0, "dist growth > 0"
    for name in ("dist_blocks", "shared_blocks"):
        assert ps[name]["chunks"] == ps[name]["fresh_allocs"], \
            f"{name}: chunks != fresh_allocs"


@invariant(carried("memory_timeline"), lambda tl: bump(tl, "shrink_events"))
def timeline_samples(tl):
    """Samples are time-ordered with cumulative shrinks, and the derived
    scalars agree with them."""
    samples = tl["samples"]
    assert samples, "no samples"
    for prev, s in zip(samples, samples[1:]):
        assert s["t_ns"] >= prev["t_ns"], f"t_ns {s['t_ns']} went back"
        assert s["shrink_events"] >= prev["shrink_events"], \
            "cumulative shrink_events went back"
    assert all(s["released_bytes"] <= s["pool_bytes"] for s in samples), \
        "a sample's released_bytes exceeds its pool_bytes"
    assert tl["shrink_events"] == samples[-1]["shrink_events"], \
        "shrink_events disagrees with the last sample"
    assert tl["steady_rss_high_water_bytes"] <= tl["rss_high_water_bytes"], \
        "the steady high-water exceeds the overall one"


@invariant(carried("memory_timeline"),
           lambda tl: bump(tl["phases"][0], "index"))
def timeline_phases(tl):
    """Phases are dense and ordered, each boundary's shrink inside the
    gap before the next phase."""
    assert tl["phases"], "no phases"
    prev_end = 0
    for i, p in enumerate(tl["phases"]):
        assert p["index"] == i, f"phase {i} has index {p['index']}"
        assert prev_end <= p["start_t_ns"] <= p["end_t_ns"], \
            f"phase {i} window out of order"
        prev_end = p["end_t_ns"] + p["shrink_ns"]


@invariant(lambda d: [(d["smoke"], r["memory_timeline"])
                      for r in records(d, "churn", FAMILY)]
           if d.get("reclaim") == "full" else [],
           lambda item: [s.update(shrink_events=0)
                         for s in (item[1], *item[1]["samples"])])
def churn_verdict(item):
    """Under full reclamation the soak shrinks, and outside --smoke final
    RSS sits on the steady-phase plateau (where RSS is reliable)."""
    smoke, tl = item
    assert tl["shrink_events"] >= 1, "no shrink event during the soak"
    assert smoke or not tl["rss_reliable"] or tl["plateau_ok"], \
        f"final RSS {tl['final_rss_bytes']} is {tl['plateau_ratio']:.2f}x " \
        f"the steady-phase high-water {tl['steady_rss_high_water_bytes']} " \
        f"(limit {1 + tl['plateau_tolerance']:.2f}x)"


@invariant(latency_ops, lambda op: op.update(p50=op["max"] + 1))
def latency_order(op):
    """Percentiles run from min to max."""
    values = [op[p] for p in PERCENTILES]
    assert values == sorted(values), f"percentiles out of order: {values}"


@invariant(lambda d: [r["service"] for r in records(d, "service")],
           lambda svc: bump(svc, "completed_ops"))
def service_accounting(svc):
    """Catch-up semantics serve every scheduled arrival."""
    assert svc["completed_ops"] == svc["scheduled_ops"], \
        "completed_ops != scheduled_ops (the harness shed load)"
    assert svc["late_ops"] <= svc["scheduled_ops"], "more late than scheduled"
    assert svc["backlog_max"] <= svc["scheduled_ops"], "backlog > schedule"
    if svc["late_ops"] > 0:
        assert svc["mean_lateness_ns"] <= svc["max_lateness_ns"] and \
            svc["max_lateness_ns"] >= svc["late_grace_ns"], \
            "late ops disagree with the lateness figures"


@invariant(lambda d: [(d["arrival"], r["service"])
                      for r in records(d, "service")]
           if d.get("benchmark") == "service" else [],
           lambda item: item[1].update(
               arrival="spike" if item[0] != "spike" else "steady"))
def service_arrival(item):
    """A service-only report's meta names its records' arrival process."""
    arrival, svc = item
    assert svc["arrival"] == arrival, \
        f"record arrival {svc['arrival']} disagrees with meta {arrival}"


@invariant(lambda d: [r["service"] for r in records(d, "service")],
           lambda svc: bump(svc["completion"]["insert"], "count"))
def intended_dominates(svc):
    """Arrival <= op start, so each intended percentile is at least its
    completion twin, over the same samples."""
    for op in OPS:
        intended, completion = svc["intended"][op], svc["completion"][op]
        assert intended["count"] == completion["count"], \
            f"{op}: intended and completion counts differ"
        if intended["count"]:
            assert all(intended[p] >= completion[p] for p in PERCENTILES), \
                f"{op}: an intended percentile is below completion"


@invariant(lambda d: [r for r in records(d, "service")],
           lambda r: flip(r["slo"], "pass"))
def slo_verdict(record):
    """pass == latency_ok && rate_ok, judged on the worst intended p99."""
    slo, intended = record["slo"], record["service"]["intended"]
    assert slo["pass"] == (slo["latency_ok"] and slo["rate_ok"]), \
        "pass disagrees with latency_ok && rate_ok"
    worst = max([intended[op]["p99"] for op in OPS
                 if intended[op]["count"] > 0], default=0)
    assert slo["observed_p99_ns"] == worst, \
        f"observed_p99_ns {slo['observed_p99_ns']} != worst p99 {worst}"
    assert slo["min_achieved_fraction"] > 0, "min_achieved_fraction is 0"


@invariant(lambda d: [r["slo"] for r in records(d, "service")
                      if "sustainable_rate" in r["slo"]],
           lambda slo: bump(slo, "sustainable_rate"))
def slo_sustainable(slo):
    """The sustainable rate is the best passing probe."""
    assert slo.get("probes"), "sustainable_rate without probes"
    passing = [rate for rate, ok in slo["probes"] if ok]
    assert slo["sustainable_rate"] == max(passing, default=0), \
        "sustainable_rate is not the best passing probe"


@invariant(lambda d: [r["bnb"] for r in records(d, "bnb")],
           lambda b: flip(b, "match"))
def bnb_optimum(bnb):
    """Relaxation may only waste work, never lose the optimum."""
    assert bnb["match"] and bnb["best"] == bnb["optimum"], \
        f"best {bnb['best']} != optimum {bnb['optimum']}"


@invariant(lambda d: records(d, "bnb"), lambda r: bump(r["bnb"], "pushed"))
def bnb_accounting(record):
    """Every push was popped, and the record mirrors its block."""
    bnb = record["bnb"]
    assert bnb["wasted_expansions"] <= bnb["expanded"], "wasted > expanded"
    assert bnb["pushed"] == bnb["expanded"] + bnb["pruned_pops"], \
        "pushed != expanded + pruned_pops (the drain leaked subproblems)"
    assert record["expanded"] == bnb["expanded"], "expanded disagrees"
    t, t_block = record["time_to_optimum_s"], bnb["time_to_optimum_s"]
    assert abs(t - t_block) <= 1e-4 + 1e-3 * max(t, t_block), \
        "time_to_optimum_s disagrees"


@invariant(lambda d: [r["des"] for r in records(d, "des")],
           lambda des: flip(des, "budget_ok"))
def des_budget(des):
    """budget_ok is exactly violation_fraction <= budget."""
    assert des["budget_ok"] == (des["violation_fraction"] <= des["budget"]), \
        "budget_ok disagrees with violation_fraction <= budget"


@invariant(lambda d: records(d, "des"), lambda r: bump(r["des"], "violations"))
def des_accounting(record):
    """The run reached its target, and the violation figures agree."""
    des = record["des"]
    assert des["committed"] >= des["target_events"], "committed < target"
    assert des["violations"] <= des["committed"], "violations > committed"
    assert abs(des["violation_fraction"]
               - des["violations"] / des["committed"]) < 1e-6, \
        "violation_fraction != violations / committed"
    assert des["violations"] == 0 or des["max_lag"] > 0, "violations, no lag"
    assert record["events_per_sec"] > 0, "events_per_sec is 0"


@invariant(lambda d: records(d, "quality", ["klsm"]),
           (lambda r: r.update(rho_hard=False),
            lambda r: r.update(max_rank=r["rho"] + 1)))
def rho_hard(record):
    """Lemma 2: k is fixed, so the k-LSM's rank bound is hard."""
    assert record.get("rho_hard") is True, "klsm quality without rho_hard"
    assert record["max_rank"] <= record["rho"], \
        f"max_rank {record['max_rank']} > rho {record['rho']}"


@invariant(carried("timeseries"), lambda ts: ts["samples"][0].pop())
def timeseries(ts):
    """Rows are t, then one value per column; t rises and counters never
    fall.  A period clamped to fit a timed run yields >= 8 rows."""
    rows, width = ts["samples"], 1 + len(ts["columns"])
    assert ts["columns"] and len(rows) >= 2, "fewer than 2 rows"
    assert 0 < ts["interval_ms"] <= ts["requested_interval_ms"] + 1e-9, \
        "interval_ms exceeds requested_interval_ms"
    if ts["interval_ms"] < ts["requested_interval_ms"]:
        assert len(rows) >= 8, f"{len(rows)} rows from a clamped period"
    assert all(len(row) == width for row in rows), f"a row is not {width} wide"
    for prev, row in zip(rows, rows[1:]):
        assert row[0] > prev[0], f"t {row[0]} not after {prev[0]}"
        for c, col in enumerate(ts["columns"], 1):
            assert col["kind"] != "counter" or row[c] >= prev[c], \
                f"counter {col['name']} went back"


def traces(doc):
    return [doc] if "traceEvents" in doc else []


@invariant(traces, lambda t: bump(t["otherData"], "recorded_events"))
def trace_events(trace):
    """Spans carry a duration, instants a scope, counters a value, and
    otherData counts the spans and instants."""
    events = trace["traceEvents"]
    assert events, "no events"
    for ev in events:
        if ev["ph"] == "X":
            assert "dur" in ev, f"span {ev['name']} without dur"
        elif ev["ph"] == "i":
            assert "s" in ev, f"instant {ev['name']} without scope"
        elif ev["ph"] == "C":
            assert _number(ev["args"]["value"]), \
                f"counter {ev['name']} without a value"
    recorded = sum(ev["ph"] in ("X", "i") for ev in events)
    assert recorded == trace["otherData"]["recorded_events"], \
        f"{recorded} spans and instants, otherData says " \
        f"{trace['otherData']['recorded_events']}"


def _unsort(trace):
    timed = [ev for ev in trace["traceEvents"] if ev["ph"] != "M"]
    timed[0]["ts"] = timed[-1]["ts"] + 1


@invariant(traces, _unsort)
def trace_order(trace):
    """Events other than metadata are time-sorted."""
    ts = [ev["ts"] for ev in trace["traceEvents"] if ev["ph"] != "M"]
    assert ts == sorted(ts), "events are not time-sorted"


# ---------------------------------------------------------------------------

def attempt(errors, label, fn, *args):
    try:
        fn(*args)
    except AssertionError as e:
        errors.append(f"{label}: {e}")
    except (AttributeError, LookupError, TypeError, ValueError,
            ZeroDivisionError) as e:
        errors.append(f"{label}: {type(e).__name__} {e}")


def schema_errors(doc):
    if not isinstance(doc, dict):
        return ["not a JSON object"]
    errors = []
    if traces(doc):
        attempt(errors, "trace", check_fields, doc, TRACE_SCHEMA)
    elif not isinstance(doc.get("schema"), dict):
        errors.append("no schema meta block")
    else:
        attempt(errors, "meta", check_fields, doc, doc["schema"]["meta"])
        for i, record in enumerate(doc.get("records", [])):
            attempt(errors, f"records[{i}] {record.get('structure')} "
                    f"{record.get('workload')}",
                    check_record, record, doc)
    return errors


def check(doc):
    """Every failure found in a report or trace; [] means it passes.
    The invariants run only on a document that passes its schema."""
    errors = schema_errors(doc)
    for name, (scope, fn, _) in ([] if errors else INVARIANTS.items()):
        for item in scope(doc):
            attempt(errors, name, fn, item)
    return errors


def check_files(paths):
    failed = 0
    for path in paths:
        with open(path) as f:
            errors = check(json.load(f))
        for e in errors:
            print(f"{path}: {e}", file=sys.stderr)
        failed += bool(errors)
        print(f"check_report: {path} {'FAILED' if errors else 'OK'}")
    return 1 if failed else 0


def bench(binary, *args):
    """Run klsm_bench with the report on stdout; check and return it."""
    out = subprocess.run([binary, *args, "--json-out", "-"],
                         capture_output=True, text=True, check=True)
    # With --trace on too, stdout must parse as one JSON document.
    report = json.loads(out.stdout)
    assert not (errors := check(report)), f"{' '.join(args)}: {errors}"
    return report


def bench_trace(binary, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        report = bench(binary, *args, "--trace", "--trace-out", path)
        with open(path) as f:
            trace = json.load(f)
    assert not (errors := check(trace)), f"trace of {args}: {errors}"
    return report, trace


def alloc_stats_wired(report):
    """--alloc-stats reached the report: a report without it is
    consistent, so only the requesting run can tell it is missing."""
    assert report["alloc_stats"] is True, "meta alloc_stats is not true"
    family = records(report, structures=FAMILY)
    assert family and all("memory" in r for r in family), \
        "no memory block on a klsm/dlsm record"


def section_memory(binary, smoke):
    for policy in ("none", "full"):
        report = bench(binary, "--structure", "klsm", "--pin", "affinity",
                       "--smoke", "--alloc-stats", "--reclaim", policy)
        alloc_stats_wired(report)
        assert report["reclaim"] == policy, f"--reclaim {policy} ignored"


def section_churn(binary, smoke):
    report = bench(binary, "--workload", "churn", "--structure", "klsm",
                   "--threads", "4", "--alloc-stats",
                   *(["--smoke"] if smoke else []))
    alloc_stats_wired(report)
    # churn_verdict's shrink and plateau checks hold under full.
    assert report["reclaim"] == "full", "churn did not reclaim in full"


def section_trace(binary, smoke):
    # Traced throughput with in-run sampling; quality runs the online
    # rank probes.
    for workload, interval, rows in (("throughput", "50ms", 10),
                                     ("quality", "2ms", 2)):
        report, trace = bench_trace(
            binary, "--workload", workload, "--structure", "klsm",
            "--threads", "2", "--smoke", "--metrics-interval", interval)
        assert report["trace"] is True, "meta.trace is not true"
        assert all(len(r["timeseries"]["samples"]) >= rows
                   for r in report["records"]), f"fewer than {rows} rows"
        assert trace["otherData"]["recorded_events"] > 0, "no events"
        assert any(ev["ph"] == "C" for ev in trace["traceEvents"]), \
            "metrics sampling on but no counter tracks"


def section_workloads(binary, smoke):
    for selection in ("bnb", "des"):
        bench(binary, "--workload", selection,
              "--structure", "klsm,multiqueue", "--smoke")
    bench(binary, "--workload", "bnb,des", "--structure", "klsm", "--smoke")
    # Relaxation must reach the workloads: at k=4096 the klsm expands
    # more bnb nodes and commits more des violations than at k=16.  One
    # seed of three suffices, since scheduling makes seeds noisy, but
    # equality on all of them means k is not wired through.
    for seed in ("1", "7", "13"):
        tight, loose = (bench(binary, "--workload", "bnb,des", "--structure",
                              "klsm", "--smoke", "--k", k, "--seed", seed)
                        for k in ("16", "4096"))
        bnb = [records(r, "bnb")[0]["bnb"]["expanded"] for r in (tight, loose)]
        des = [records(r, "des")[0]["des"]["violation_fraction"]
               for r in (tight, loose)]
        print(f"  seed {seed}: bnb expanded {bnb[0]} -> {bnb[1]}, "
              f"des violation fraction {des[0]:.4f} -> {des[1]:.4f}")
        if bnb[1] > bnb[0] and des[1] > des[0]:
            return
    raise AssertionError("k=16 and k=4096 are indistinguishable on every "
                         "probe seed")


def section_pin(binary, smoke):
    """Pinning stays inside the process's CPU mask: under a one-CPU
    mask, two workers pinned by --pin affinity both get that CPU."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(mask)})
    try:
        report = bench(binary, "--smoke", "--workload", "throughput",
                       "--structure", "klsm", "--threads", "2",
                       "--pin", "affinity")
    finally:
        os.sched_setaffinity(0, mask)
    assert report["cpus"] == 1, f"cpus {report['cpus']} under a 1-cpu mask"
    assert report["records"] and all(
        r["pin"] == "affinity" and r["pin_failures"] == 0
        for r in report["records"]), "a record is unpinned or failed to pin"


SECTIONS = {"memory": section_memory, "churn": section_churn,
            "trace": section_trace, "workloads": section_workloads,
            "pin": section_pin,
            "service": lambda binary, smoke: bench(
                binary, "--workload", "service", "--structure", "klsm,dlsm",
                "--arrival", "poisson", "--rate", "500000", "--smoke")}


# ---------------------------------------------------------------------------

def targets(doc):
    """(declaration, [(a part of `doc` it describes, the document that
    part is checked in)]) pairs; a record is checked on its own."""
    if traces(doc):
        return [(d, [(doc, doc)]) for d in parse(TRACE_SCHEMA)]
    schema = doc["schema"]
    out = [(d, [(doc, doc)]) for d in parse(schema["meta"])]
    for workload, entry in schema["workloads"].items():
        out += [(d, [(r, dict(doc, records=[r]))
                     for r in records(doc, workload)])
                for d in parse(entry["fields"])]
    for block, spec in schema["blocks"].items():
        out += [(d, [(r[block], dict(doc, records=[r]))
                     for r in records(doc) if block in r])
                for d in parse(spec)]
    return out


def mutations(doc):
    """Yield (label, view) per broken copy of `doc`, broken in place
    while the caller checks `view`: every declared field missing, then
    of the wrong type."""
    for d, holders in targets(doc):
        found = next(((p, k, view) for h, view in holders
                      for p, k, _ in locate(h, d["steps"])
                      if k is not None), None)
        if found is None:
            continue
        parent, key, view = found
        value = parent[key]
        if not d.get("optional") and not d["path"].endswith("[]"):
            del parent[key]
            yield f"{d['path']} missing", view
            if isinstance(parent, list):
                parent.insert(key, value)
            else:
                parent[key] = value
        parent[key] = 0 if d["type"] in ("string", "enum") else "wrong"
        yield f"{d['path']} of the wrong type", view
        parent[key] = value
    shared = doc.get("schema", {}).get("blocks", {})
    for workload in doc.get("schema", {}).get("workloads", {}):
        for block in shared:
            having = [r for r in records(doc) if block in r]
            mine = records(doc, workload)
            record = next((r for r in mine if block in r), None)
            if record:
                value = record.pop(block)
                yield f"{workload} record without {block}", doc
                record[block] = value
            record = next((r for r in mine if block not in r), None)
            if record and having:
                record[block] = having[0][block]
                yield f"{workload} record with an unexpected {block}", doc
                del record[block]


def registered(binary):
    probe = subprocess.run([binary, "--workload", "?"],
                           capture_output=True, text=True)
    return re.search(r"registered: ([^)]*)\)", probe.stderr) \
        .group(1).replace(" ", "")


def self_test(binary):
    report = bench(
        binary, "--workload", registered(binary), "--structure", "klsm,heap",
        "--threads", "2", "--smoke", "--alloc-stats", "--reclaim", "full",
        "--metrics-interval", "5ms", "--find-sustainable",
        "--slo-p99-us", "50000")
    # A single-workload run declares that workload's meta fields too.
    single, trace = bench_trace(binary, "--workload", "service",
                                "--structure", "klsm", "--threads", "2",
                                "--smoke", "--metrics-interval", "5ms")
    docs = (("report", report), ("service report", single), ("trace", trace))
    failures, broken = [], 0
    # Without --alloc-stats a report is consistent, so the acceptance
    # runs that request it must notice it is off.
    off = copy.deepcopy(report)
    off["alloc_stats"] = False
    for r in off["records"]:
        r.pop("memory", None)
    attempt(failures, "the --alloc-stats report", alloc_stats_wired, report)
    if errors := check(off):
        failures.append(f"the report with --alloc-stats off fails: {errors}")
    try:
        alloc_stats_wired(off)
        failures.append("alloc_stats_wired passes with --alloc-stats off")
    except AssertionError:
        pass
    broken += 1
    for name, doc in docs:
        for label, view in mutations(doc):
            broken += 1
            if not schema_errors(view):
                failures.append(f"{name} with {label} passes")
    exercised = set()
    for inv, (scope, _, breaks) in INVARIANTS.items():
        for doc in (d for _, d in docs if scope(d)):
            for brk in breaks if isinstance(breaks, tuple) else (breaks,):
                copied = copy.deepcopy(doc)
                brk(scope(copied)[0])
                broken += 1
                exercised.add(inv)
                if not any(e.startswith(inv + ":") for e in check(copied)):
                    failures.append(f"breaking {inv} goes unnoticed")
    failures += [f"no smoke report exercises {inv}"
                 for inv in INVARIANTS if inv not in exercised]
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    print(f"check_report self-test: {broken} broken copies, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    try:
        if len(argv) == 2 and argv[0] == "--self-test":
            return self_test(argv[1])
        if len(argv) in (3, 4) and argv[0] == "--bench" \
                and argv[2] in SECTIONS and argv[3:] in ([], ["--smoke"]):
            SECTIONS[argv[2]](argv[1], argv[3:] == ["--smoke"])
            print(f"check_report: {argv[2]} section OK")
            return 0
    except (AssertionError, subprocess.CalledProcessError) as e:
        print(f"check_report: FAILED: {e}", file=sys.stderr)
        return 1
    if not argv or argv[0].startswith("--"):
        print(__doc__, file=sys.stderr)
        return 2
    return check_files(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
