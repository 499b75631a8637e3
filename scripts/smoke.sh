#!/usr/bin/env bash
# CI smoke stage: run every example binary, `klsm_bench --smoke` for
# every structure x workload, and the pinning, allocation-telemetry,
# service, churn-soak, application-workload and trace sections, failing
# on the first nonzero exit.  Every JSON report and trace is checked
# against the schema it declares (scripts/check_report.py) and kept
# under $REPORT_DIR so CI can upload them as workflow artifacts.
#
#   scripts/smoke.sh [build-dir] [report-dir]
#   (defaults: build, <build-dir>/smoke-reports)
set -euo pipefail

BUILD_DIR="${1:-build}"
REPORT_DIR="${2:-$BUILD_DIR/smoke-reports}"
SCRIPTS="$(dirname "$0")"
BENCH="$BUILD_DIR/bench/klsm_bench"
if [[ ! -x "$BENCH" ]]; then
    echo "error: $BENCH not found; build first" >&2
    exit 2
fi
# Without python3 no report could be checked: refuse rather than pass.
if ! command -v python3 > /dev/null; then
    echo "error: python3 not found; smoke.sh checks every report with it" >&2
    exit 2
fi
mkdir -p "$REPORT_DIR"

# bench NAME FLAGS...: a --smoke run into $REPORT_DIR/NAME.json,
# checked with every other report at the end.
CHECKED=()
bench() {
    local json="$REPORT_DIR/$1.json"
    shift
    "$BENCH" --smoke "$@" --json-out "$json" > /dev/null
    CHECKED+=("$json")
}

compare() {
    python3 "$SCRIPTS/compare_bench.py" "$@" > /dev/null
}

echo "== examples =="
"$BUILD_DIR/examples/quickstart" > /dev/null
"$BUILD_DIR/examples/task_scheduler" > /dev/null
"$BUILD_DIR/examples/sssp_shortest_paths" 500 4 256 > /dev/null
"$BUILD_DIR/examples/branch_and_bound" > /dev/null
echo "examples OK"

echo "== klsm_bench --smoke =="
for s in klsm dlsm multiqueue linden spraylist heap centralized hybrid; do
    for w in throughput quality sssp; do
        bench "$s-$w" --workload "$w" --structure "$s" --threads 1,2
    done
done
echo "smoke OK: every structure x throughput, quality, sssp"

echo "== pinning policies =="
# Every pinning policy; on a runner without sysfs this exercises the
# topology fallback path end to end.
for p in none compact scatter; do
    bench "pin-$p" --workload throughput --structure klsm --threads 2 \
        --pin "$p"
done
bench pin-sweep --workload throughput --structure klsm \
    --pin compact,scatter --threads 1,2
# The placement paths under every workload, not just throughput.
for w in throughput quality sssp; do
    bench "pin-sweep-$w" --workload "$w" --structure klsm \
        --pin compact,scatter --threads 2
done
echo "smoke OK: pinning"

echo "== buffered handles: engineered multiqueue vs buffered k-LSM =="
# Both rivals in one report with their handle buffers on; quality
# fails the run if rho = (T+1)*k + T*buffer_total is violated.
for w in quality:2 throughput:1,2; do
    bench "buffered-${w%%:*}" --workload "${w%%:*}" \
        --structure klsm,multiqueue --threads "${w#*:}" \
        --insert-buffer 16 --mq-stickiness 8 --mq-buffer 16
    compare --head-to-head "$REPORT_DIR/buffered-${w%%:*}.json"
done
echo "smoke OK: buffered head-to-head"

echo "== allocation telemetry: --alloc-stats =="
# Every structure: the k-LSM family carries `memory`, the others none.
bench memory-all --workload throughput \
    --structure klsm,dlsm,multiqueue,linden,spraylist,heap,centralized,hybrid \
    --threads 1,2 --alloc-stats
# Plain heap storage and page-managed (`full`, shrink-enabled) storage.
for rp in none full; do
    bench "memory-$rp" --workload throughput --structure klsm,dlsm \
        --threads 2 --alloc-stats --reclaim "$rp"
done
bench memory-accept --structure klsm --pin compact --alloc-stats
echo "smoke OK: allocation telemetry"

echo "== service mode: arrival processes x SLO verdicts =="
for a in steady poisson spike diurnal; do
    bench "service-$a" --workload service --structure klsm,dlsm \
        --arrival "$a" --rate 200000 --threads 2
done
bench service-accept --workload service --structure klsm,dlsm \
    --arrival poisson --rate 500000
# Identity diff over the service gates: clean on a self-compare.
compare "$REPORT_DIR/service-accept.json" "$REPORT_DIR/service-accept.json"
# The sustainable-rate search with a latency objective.
bench service-sustainable --workload service --structure klsm \
    --arrival poisson --rate 100000 --threads 2 \
    --find-sustainable --slo-p99-us 50000
echo "smoke OK: service"

echo "== churn soak: reclamation policies x structures =="
# At --smoke scale the shrink-event verdict is enforced (on churn-full),
# the RSS plateau is not (process overheads dominate a miniature run).
for rp in none full; do
    bench "churn-$rp" --workload churn --structure klsm,dlsm --threads 2 \
        --reclaim "$rp" --alloc-stats
done
bench churn-baselines --workload churn --structure linden,heap --threads 2
compare "$REPORT_DIR/churn-full.json" "$REPORT_DIR/churn-full.json"
echo "smoke OK: churn soak"

echo "== application workloads: bnb + des =="
for w in bnb des; do
    bench "workload-$w" --workload "$w" --structure klsm,multiqueue
    compare --head-to-head "$REPORT_DIR/workload-$w.json"
done
bench workload-combined --workload bnb,des --structure klsm,heap \
    --threads 1,2
compare "$REPORT_DIR/workload-combined.json" \
    "$REPORT_DIR/workload-combined.json"
echo "smoke OK: application workloads"

echo "== trace: event ring + timeseries =="
# Traced throughput with in-run sampling, and traced quality (the
# online rank probes).
bench trace-throughput --workload throughput --structure klsm,multiqueue \
    --threads 2 --metrics-interval 50ms \
    --trace --trace-out "$REPORT_DIR/throughput.trace.json"
bench trace-quality --workload quality --structure klsm --threads 2 \
    --metrics-interval 5ms \
    --trace --trace-out "$REPORT_DIR/quality.trace.json"
python3 "$SCRIPTS/check_report.py" "$REPORT_DIR"/*.trace.json > /dev/null
python3 "$SCRIPTS/trace_report.py" --self-test > /dev/null
python3 "$SCRIPTS/trace_report.py" "$REPORT_DIR"/*.trace.json > /dev/null
# The timeseries phase gate is clean on an identity diff.
compare "$REPORT_DIR/trace-throughput.json" "$REPORT_DIR/trace-throughput.json"
echo "smoke OK: trace"

echo "== check every report =="
python3 "$SCRIPTS/check_report.py" "${CHECKED[@]}" > /dev/null
echo "smoke OK: ${#CHECKED[@]} reports and traces match their schema"
echo "smoke stage passed (reports in $REPORT_DIR)"
