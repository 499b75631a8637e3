#!/usr/bin/env python3
"""The k-LSM ledger: run one benchmark workload and print its metrics.

    python3 ledger/run.py --workload mix50 --seed 1 --seconds 20 --trace 0
    python3 ledger/run.py --seed 1            # every workload, one block each
    python3 ledger/run.py --smoke             # tiny shapes, schema check only

Run from the repository root.  The first call builds ledger_bench
(CMake, Release) into $CARGO_TARGET_DIR/ledger, default
.bench_build/ledger.  A run starts one ledger_bench process per
repetition until --seconds of wall time have passed, at least three,
so that each repetition's peak RSS is its own (wait4's ru_maxrss).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over
the repetitions.  --trace 1 alternates untraced and traced repetitions,
then times the layers in isolation, and reports the per-layer metrics:
medians over the traced repetitions, plus trace.overhead_frac, the
traced job time over the untraced one, minus one.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A wrong
answer is reported there (correct false, failed > 0) and the exit code
stays 0.  The exit code is non-zero only when the build fails, a
repetition crashes or hangs, or a metric of BENCHMARK.json is missing.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["mix50", "des", "sssp", "churn"]
MIN_REPS = 3
MAX_REPS = 60
REP_TIMEOUT_S = 60


class BenchError(Exception):
    """A failure that must end the run without a result."""


def spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise BenchError("cannot read BENCHMARK.json: %s" % e)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "ledger"


def build():
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "ledger_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build logs go to stderr: stdout carries only the ledger.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "ledger_bench"


def run_rep(binary, args):
    """One ledger_bench process: its JSON record plus its peak RSS."""
    err_path = build_dir() / "rep.stderr"
    with open(err_path, "w+") as err:
        proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            watchdog.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        err_tail = err.read()[-2000:]
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("ledger_bench %s exited with %d\n%s"
                         % (" ".join(args), proc.returncode, err_tail))
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError("ledger_bench printed no JSON record: %s" % e)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB
    return record


def median_iqr(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, q[2] - q[0]


class Environment:
    """What the machine looked like: CPU count and model, load, steal."""

    def __init__(self):
        self.nproc = len(os.sched_getaffinity(0))
        self.cpu = "unknown"
        try:
            with open("/proc/cpuinfo") as f:
                for line in f:
                    if line.startswith("model name"):
                        self.cpu = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
        self.load_before = os.getloadavg()
        self.steal_before = self.steal_ticks()

    @staticmethod
    def steal_ticks():
        try:
            with open("/proc/stat") as f:
                fields = f.readline().split()
            return int(fields[8])
        except (OSError, IndexError, ValueError):
            return 0

    def describe(self):
        return {"nproc": self.nproc, "cpu": self.cpu,
                "loadavg_before": list(self.load_before),
                "loadavg_after": list(os.getloadavg()),
                "steal_ticks": self.steal_ticks() - self.steal_before}


def run_workload(binary, workload, seed, seconds, trace, smoke):
    """All repetitions of one workload; returns the aggregated result."""
    common = ["--workload", workload, "--seed", str(seed)]
    if smoke:
        common.append("--smoke")
    trace_file = build_dir() / ("trace-%s.json" % workload)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        enough = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS)
        elapsed = time.monotonic() - start
        if (enough and elapsed >= seconds) or len(plain) + len(traced) >= MAX_REPS:
            break
        if trace and len(traced) < len(plain):
            traced.append(run_rep(binary, common + [
                "--traced", "--trace-out", str(trace_file)]))
        else:
            plain.append(run_rep(binary, common))
    reps = plain + traced
    result = {
        "workload": workload,
        "seed": seed,
        "correct": all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "checks": sorted({r["check"] for r in reps}),
        "reps": reps,
        "wall_s": time.monotonic() - start,
        "values": {},
    }
    for name in ("job_s", "setup_s", "peak_rss_mb"):
        result["values"][name] = median_iqr([r[name] for r in plain])
    if trace:
        layers = run_rep(binary, ["--workload", "layers", "--seed", str(seed)]
                         + (["--smoke"] if smoke else []))["layers"]
        for name in traced[0]["layers"]:
            result["values"][name] = median_iqr(
                [r["layers"][name] for r in traced])
        for name, value in layers.items():
            result["values"][name] = (value, 0.0)
        untraced_job = result["values"]["job_s"][0]
        traced_job = statistics.median(r["job_s"] for r in traced)
        result["values"]["trace.overhead_frac"] = (
            traced_job / untraced_job - 1.0, 0.0)
        result["trace_file"] = str(trace_file)
    return result


def metrics_of(result, metric_specs):
    out = {}
    for m in metric_specs:
        if m["name"] not in result["values"]:
            raise BenchError("metric %s missing for workload %s"
                             % (m["name"], result["workload"]))
        value = float(result["values"][m["name"]][0])
        if not math.isfinite(value):
            raise BenchError("metric %s is not a finite number" % m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def print_block(result, metric_specs, env):
    w = result["workload"]
    n_plain = sum(1 for r in result["reps"] if not r["layers"])
    print("# ledger %s  seed %d  %d untraced + %d traced reps  %.1f s"
          % (w, result["seed"], n_plain, len(result["reps"]) - n_plain,
             result["wall_s"]))
    for m in metric_specs:
        med, iqr = result["values"][m["name"]]
        spread = iqr / med if med else 0.0
        print("%-42s %14.6g %-6s IQR %.4g (%.1f%%)"
              % (w + "." + m["name"], med, m["unit"], iqr, 100 * spread))
    share = result["failed"] / result["attempted"] if result["attempted"] else 0
    print("%-42s %14.6g        (%d of %d attempted; check: %s)"
          % (w + ".failure_share", share, result["failed"],
             result["attempted"], "; ".join(result["checks"])))
    details = {}
    for r in result["reps"]:
        for k, v in r["detail"].items():
            details.setdefault(k, []).append(v)
    print("# detail (medians): " + ", ".join(
        "%s %.6g" % (k, statistics.median(v)) for k, v in details.items()))
    if "trace_file" in result:
        print("# spans: " + result["trace_file"])
    e = env.describe()
    print("# env: nproc %d, cpu %s, loadavg %s -> %s, steal %d ticks"
          % (e["nproc"], e["cpu"],
             " ".join("%.2f" % x for x in e["loadavg_before"]),
             " ".join("%.2f" % x for x in e["loadavg_after"]),
             e["steal_ticks"]))


def smoke_check(binary):
    """Every workload, both modes, tiny shapes: check the output schema."""
    s = spec()
    for workload in WORKLOADS:
        for trace in (0, 1):
            names = s["per_layer"] if trace else s["end_to_end"]
            result = run_workload(binary, workload, 1, 0, trace, smoke=True)
            metrics = metrics_of(result, names)
            if set(metrics) != {m["name"] for m in names}:
                raise BenchError("metric set differs from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                raise BenchError("%s smoke run incorrect: %s"
                                 % (workload, result["checks"]))
            print("smoke %-6s trace %d: %d metrics, %d reps"
                  % (workload, trace, len(metrics), len(result["reps"])))
    print(json.dumps({"smoke": "ok"}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="wall time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny shapes, every workload, schema check only")
    ap.add_argument("--out", help="also write every repetition as JSON here")
    args = ap.parse_args()
    try:
        s = spec()
        binary = build()
        if args.smoke:
            smoke_check(binary)
            return 0
        trace = args.trace
        seconds = s["run_seconds"] if args.seconds is None else args.seconds
        names = s["per_layer"] if trace else s["end_to_end"]
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        env = Environment()
        results, metrics = [], {}
        for w in workloads:
            result = run_workload(binary, w, args.seed, seconds, trace, False)
            print_block(result, names, env)
            got = metrics_of(result, names)
            if len(workloads) > 1:
                got = {w + "." + k: v for k, v in got.items()}
            metrics.update(got)
            results.append(result)
    except BenchError as e:
        print("ledger: " + str(e), file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"environment": env.describe(), "results": results},
                      f, indent=1)
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
