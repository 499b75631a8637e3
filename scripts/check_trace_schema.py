#!/usr/bin/env python3
"""Validate klsm_bench trace artifacts: Chrome-trace JSON and the
per-record `timeseries` block.

Trace schema (README "Observability"): --trace writes one JSON
document loadable by chrome://tracing and ui.perfetto.dev:

    {"traceEvents": [ {name, cat, pid, tid, ph, ts [, dur, s, args]},
                      ... ],
     "displayTimeUnit": "ms",
     "otherData": {recorded_events, dropped_events, threads}}

with the invariants the exporter promises:

  * every event names a phase in {X, i, I, C, M, b, e}; this exporter
    only emits X (spans), i (instants), C (counters), M (metadata);
  * timestamps are microseconds relative to the tracer's enable()
    base: non-negative, and nondecreasing in array order across all
    non-metadata events;
  * X events carry a non-negative dur, and ts + dur never precedes
    the tracer base (spans cannot start before tracing began);
  * otherData.recorded_events equals the number of exported span +
    instant events, and dropped_events counts ring overwrites.

Timeseries schema (--metrics-interval): each record of the bench JSON
gains

    "timeseries": {"requested_interval_ms", "interval_ms",
                   "columns": [{"name", "kind": "counter"|"gauge"},..],
                   "samples": [[t_s, v0, v1, ...], ...]}

where t_s is strictly increasing from 0, every row has one value per
column, and counter columns are monotone nondecreasing (they are
cumulative; consumers derive rates).

Usage:
    check_trace_schema.py --trace trace.json [trace2.json ...]
    check_trace_schema.py --report report.json [--min-samples N]
    check_trace_schema.py --bench path/to/klsm_bench

The --bench mode runs the ISSUE's acceptance command end to end
(--workload throughput --trace --metrics-interval ... --json-out -)
plus a traced quality run, validates both artifacts, and asserts
the stdout-purity satellite: with tracing on, `--json-out -` stdout
parses as exactly one JSON document.  CTest invokes this mode so the
wiring is covered by `ctest -L tier1`.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

PHASES = ("X", "i", "I", "C", "M", "b", "e")
EXPORTER_PHASES = ("X", "i", "C", "M")
INSTANT_SCOPES = ("t", "p", "g")
KINDS = ("counter", "gauge")


def fail(msg):
    raise AssertionError(msg)


def is_num(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def check_trace(doc, path):
    assert isinstance(doc, dict), f"{path}: top level is not an object"
    events = doc.get("traceEvents")
    assert isinstance(events, list) and events, \
        f"{path}: traceEvents missing or empty"
    other = doc.get("otherData")
    assert isinstance(other, dict), f"{path}: otherData missing"
    for field in ("recorded_events", "dropped_events", "threads"):
        assert isinstance(other.get(field), int) \
            and other[field] >= 0, \
            f"{path}: otherData.{field} missing or negative"

    last_ts = None
    runtime_events = 0
    counter_events = 0
    for i, ev in enumerate(events):
        where = f"{path}:traceEvents[{i}]"
        assert isinstance(ev, dict), f"{where}: not an object"
        assert isinstance(ev.get("name"), str) and ev["name"], \
            f"{where}: name missing"
        ph = ev.get("ph")
        assert ph in PHASES, f"{where}: ph = {ph!r} invalid"
        assert ph in EXPORTER_PHASES, \
            f"{where}: ph = {ph!r} is legal Chrome-trace but not " \
            f"something this exporter emits"
        assert isinstance(ev.get("pid"), int), f"{where}: pid missing"
        assert isinstance(ev.get("tid"), int), f"{where}: tid missing"
        ts = ev.get("ts")
        assert is_num(ts) and ts >= 0, \
            f"{where}: ts = {ts!r} is not a non-negative number"
        if ph == "M":
            continue
        if last_ts is not None:
            assert ts >= last_ts, \
                f"{where}: ts {ts} < previous {last_ts} (events must " \
                f"be time-sorted)"
        last_ts = ts
        if ph == "X":
            dur = ev.get("dur")
            assert is_num(dur) and dur >= 0, \
                f"{where}: X event dur = {dur!r} invalid"
            runtime_events += 1
        elif ph == "i":
            assert ev.get("s") in INSTANT_SCOPES, \
                f"{where}: instant scope s = {ev.get('s')!r} invalid"
            runtime_events += 1
        elif ph == "C":
            args = ev.get("args")
            assert isinstance(args, dict) and is_num(
                args.get("value")), \
                f"{where}: counter without a numeric args.value"
            counter_events += 1
    assert runtime_events == other["recorded_events"], \
        f"{path}: otherData.recorded_events = " \
        f"{other['recorded_events']} but {runtime_events} span/" \
        f"instant events exported"
    return runtime_events, counter_events


def check_timeseries(ts, where, min_samples=0):
    assert isinstance(ts, dict), f"{where}: not an object"
    for field in ("requested_interval_ms", "interval_ms"):
        assert is_num(ts.get(field)) and ts[field] > 0, \
            f"{where}.{field} missing or non-positive"
    assert ts["interval_ms"] <= ts["requested_interval_ms"] + 1e-9, \
        f"{where}: effective interval exceeds the requested one"
    columns = ts.get("columns")
    assert isinstance(columns, list) and columns, \
        f"{where}.columns missing or empty"
    for c, col in enumerate(columns):
        assert isinstance(col, dict) \
            and isinstance(col.get("name"), str) and col["name"] \
            and col.get("kind") in KINDS, \
            f"{where}.columns[{c}] = {col!r} malformed"
    samples = ts.get("samples")
    assert isinstance(samples, list), f"{where}.samples missing"
    assert len(samples) >= min_samples, \
        f"{where}: {len(samples)} samples < required {min_samples}"
    prev_t = None
    prev_row = None
    for r, row in enumerate(samples):
        assert isinstance(row, list) \
            and len(row) == len(columns) + 1, \
            f"{where}.samples[{r}]: row length {len(row)} != " \
            f"1 + {len(columns)} columns"
        assert all(is_num(v) for v in row), \
            f"{where}.samples[{r}]: non-finite value"
        t = row[0]
        assert t >= 0, f"{where}.samples[{r}]: negative timestamp"
        if prev_t is not None:
            assert t > prev_t, \
                f"{where}.samples[{r}]: t {t} not strictly after " \
                f"{prev_t}"
            for c, col in enumerate(columns):
                if col["kind"] == "counter":
                    assert row[c + 1] >= prev_row[c + 1], \
                        f"{where}.samples[{r}].{col['name']}: " \
                        f"counter went backwards " \
                        f"({prev_row[c + 1]} -> {row[c + 1]})"
        prev_t, prev_row = t, row
    return len(samples)


def check_report(report, path, min_samples):
    records = report.get("records", [])
    assert records, f"{path}: no records"
    checked = 0
    for record in records:
        structure = record.get("structure", "?")
        ts = record.get("timeseries")
        assert ts is not None, f"{path}:{structure}: no timeseries"
        check_timeseries(ts, f"{path}:{structure}.timeseries",
                         min_samples)
        checked += 1
    return checked


def run_bench(bench, args, trace_out):
    cmd = [bench] + args + ["--trace", "--trace-out", trace_out,
                            "--json-out", "-"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, check=True)
    # Stdout purity: with tracing armed, `--json-out -` stdout must be
    # exactly one JSON document — no table rows, no trace diagnostics.
    text = out.stdout.decode()
    report = json.loads(text)
    assert text.strip().startswith("{") and text.strip().endswith("}"), \
        "bench stdout is not a single JSON object"
    return report


def bench_mode(bench):
    with tempfile.TemporaryDirectory() as tmp:
        # The acceptance command at smoke scale: traced throughput with
        # in-run sampling.  Smoke runs ~50 ms; the driver clamps the
        # period so the series still carries >= 10 rows.
        trace1 = os.path.join(tmp, "throughput.trace.json")
        report = run_bench(bench, [
            "--workload", "throughput", "--structure", "klsm",
            "--threads", "2", "--smoke",
            "--metrics-interval", "50ms"], trace1)
        assert report.get("trace") is True, "meta.trace missing"
        assert is_num(report.get("metrics_interval_ms")), \
            "meta.metrics_interval_ms missing"
        n = check_report(report, "<throughput stdout>", min_samples=10)
        with open(trace1) as f:
            spans, counters = check_trace(json.load(f), trace1)
        assert spans > 0, "traced throughput run recorded no events"
        assert counters > 0, \
            "metrics sampling on but no counter tracks exported"
        print(f"trace schema OK: throughput acceptance run "
              f"({n} record(s), {spans} events, {counters} counter "
              f"points)")

        # Traced quality: exercises the online-rank probes through the
        # same validators.
        trace2 = os.path.join(tmp, "quality.trace.json")
        report = run_bench(bench, [
            "--workload", "quality", "--structure", "klsm",
            "--threads", "2", "--smoke",
            "--metrics-interval", "2ms"], trace2)
        n = check_report(report, "<quality stdout>", min_samples=2)
        with open(trace2) as f:
            spans, _ = check_trace(json.load(f), trace2)
        assert spans > 0, "traced quality run recorded no events"
        print(f"trace schema OK: quality run "
              f"({n} record(s), {spans} events)")
    return 0


def main(argv):
    if not argv:
        print(__doc__)
        return 2
    if argv[0] == "--bench":
        assert len(argv) >= 2, "--bench needs the binary path"
        return bench_mode(argv[1])
    if argv[0] == "--trace":
        for path in argv[1:]:
            with open(path) as f:
                spans, counters = check_trace(json.load(f), path)
            print(f"trace schema OK: {path} ({spans} events, "
                  f"{counters} counter points)")
        return 0
    if argv[0] == "--report":
        min_samples = 0
        paths = []
        rest = argv[1:]
        while rest:
            if rest[0] == "--min-samples":
                min_samples = int(rest[1])
                rest = rest[2:]
            else:
                paths.append(rest[0])
                rest = rest[1:]
        for path in paths:
            with open(path) as f:
                n = check_report(json.load(f), path, min_samples)
            print(f"timeseries schema OK: {path} ({n} record(s))")
        return 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except AssertionError as e:
        print(f"trace schema FAIL: {e}", file=sys.stderr)
        sys.exit(1)
