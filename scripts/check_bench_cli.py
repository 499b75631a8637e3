#!/usr/bin/env python3
"""Check that klsm_bench rejects bad command lines with a named error.

Every case below must exit with status 2 (usage error) and name the
offending flag on stderr:

  * negative values of the unsigned count flags (--k, --prefill, --ops,
    --nodes), which must not wrap to 2^64 - 1;
  * out-of-range values: --k above 2^32 - 1, --reclaim policies
    other than auto, none and full, and a nonzero --metrics-interval
    below the sampler's 100us floor (the error must name the floor);
  * the retired pin policies compact and scatter (the error must name
    the accepted values, none and affinity), while `--pin
    none,affinity` runs;
  * the flags klsm_bench no longer has.  Their settings are fixed
    constants now (README "Application workloads", "Service mode &
    SLOs", "Reclamation" and "Observability" give the values), and
    `--help` must not list them either.

Usage:
    check_bench_cli.py path/to/klsm_bench

CTest runs it as test_bench_cli when the bench tree is built.
"""

import subprocess
import sys

# A correct binary rejects every case while parsing, in milliseconds.
# The timeout only bounds a regression that starts a run instead.
TIMEOUT_S = 20

# (flag the error must name, arguments).  --ops and --nodes are read
# only when their workload runs without --smoke.
NEGATIVE_COUNTS = [
    ("--k", ["--smoke", "--k", "-1"]),
    ("--prefill", ["--smoke", "--prefill", "-1"]),
    ("--ops", ["--workload", "quality", "--threads", "1", "--prefill",
               "1000", "--ops", "-1"]),
    ("--nodes", ["--workload", "sssp", "--threads", "1", "--nodes",
                 "-1"]),
]

# (flag the error must name, arguments) for values past a flag's range.
OUT_OF_RANGE = [
    ("--k", ["--smoke", "--k", str(2**32)]),
    ("--reclaim", ["--smoke", "--reclaim", "freelist"]),
    ("--reclaim", ["--smoke", "--reclaim", "shrink"]),
]

# Retired pin policies; the error names the two that remain.
RETIRED_PINS = ["compact", "scatter"]
PIN_VALUES = "none, affinity"
BOTH_PINS = ["--smoke", "--workload", "throughput", "--structure", "klsm",
             "--threads", "1", "--pin", "none,affinity", "--json-out", "-"]

# A sampling period below the floor would be sampled at the floor, and
# the report's interval_ms would exceed its requested_interval_ms.
BELOW_METRICS_FLOOR = ["--smoke", "--workload", "quality", "--structure",
                       "klsm", "--threads", "2", "--metrics-interval",
                       "50us"]

# Retired flags with the value each one took by default.
RETIRED = [
    ("--csv", None),
    ("--reclaim-period", "512"),
    ("--reclaim-grace", "2"),
    ("--trace-ring", "65536"),
    ("--insert-pct", "50"),
    ("--sample-interval-ms", "50"),
    ("--bnb-seed-depth", "13"),
    ("--des-lps", "256"),
    ("--des-population", "8192"),
    ("--des-lookahead", "0"),
    ("--des-mean-delay", "64"),
    ("--des-budget", "0.15"),
    ("--spike-frac", "0.1"),
    ("--diurnal-amplitude", "0.75"),
    ("--diurnal-periods", "1"),
    ("--slo-min-rate", "0.9"),
    ("--slo-enforce", None),
]


def expect_usage_error(binary, flag, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S)
    first = proc.stderr.splitlines()[0] if proc.stderr else ""
    assert proc.returncode == 2, \
        f"{' '.join(args)}: exit {proc.returncode}, expected 2 ({first!r})"
    assert flag in first, \
        f"{' '.join(args)}: stderr does not name {flag}: {first!r}"
    return first


def main(argv):
    if len(argv) != 1:
        print(__doc__)
        return 2
    binary = argv[0]
    for flag, args in NEGATIVE_COUNTS + OUT_OF_RANGE:
        expect_usage_error(binary, flag, args)
    for flag, value in RETIRED:
        expect_usage_error(binary, flag,
                           [flag] + ([] if value is None else [value]))
    for pin in RETIRED_PINS:
        first = expect_usage_error(binary, "--pin",
                                   ["--smoke", "--pin", pin])
        assert PIN_VALUES in first, \
            f"--pin {pin}: stderr does not name {PIN_VALUES}: {first!r}"
    both = subprocess.run([binary] + BOTH_PINS, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S)
    assert both.returncode == 0, \
        f"--pin none,affinity: exit {both.returncode}: {both.stderr!r}"
    first = expect_usage_error(binary, "--metrics-interval",
                               BELOW_METRICS_FLOOR)
    assert "100us" in first, \
        f"--metrics-interval 50us: stderr does not name the floor: {first!r}"
    usage = subprocess.run([binary, "--help"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True,
                           timeout=TIMEOUT_S).stderr
    listed = {line.split()[0] for line in usage.splitlines()
              if line.startswith("  --")}
    still = sorted(flag for flag, _ in RETIRED if flag in listed)
    assert not still, f"--help still lists {still}"
    print(f"bench CLI OK: {len(NEGATIVE_COUNTS)} negative counts, "
          f"{len(OUT_OF_RANGE) + 1} out-of-range values, "
          f"{len(RETIRED_PINS)} retired pin policies and "
          f"{len(RETIRED)} retired flags rejected; --help lists "
          f"{len(listed)} flags")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
