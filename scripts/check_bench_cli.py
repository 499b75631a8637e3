#!/usr/bin/env python3
"""Check that klsm_bench rejects bad command lines with a named error.

Every case below must exit with status 2 (usage error) and name the
offending flag on stderr:

  * negative values of the unsigned count flags (--k, --prefill, --ops,
    --nodes), which must not wrap to 2^64 - 1;
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


def main(argv):
    if len(argv) != 1:
        print(__doc__)
        return 2
    binary = argv[0]
    for flag, args in NEGATIVE_COUNTS:
        expect_usage_error(binary, flag, args)
    for flag, value in RETIRED:
        expect_usage_error(binary, flag,
                           [flag] + ([] if value is None else [value]))
    usage = subprocess.run([binary, "--help"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True,
                           timeout=TIMEOUT_S).stderr
    listed = {line.split()[0] for line in usage.splitlines()
              if line.startswith("  --")}
    still = sorted(flag for flag, _ in RETIRED if flag in listed)
    assert not still, f"--help still lists {still}"
    print(f"bench CLI OK: {len(NEGATIVE_COUNTS)} negative counts and "
          f"{len(RETIRED)} retired flags rejected; --help lists "
          f"{len(listed)} flags")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
