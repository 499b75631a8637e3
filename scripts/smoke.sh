#!/usr/bin/env bash
# CI smoke stage: run every example binary, `klsm_bench --smoke` for
# every structure x workload, and a pinning-policy pass, failing on the
# first nonzero exit.  JSON reports are kept under $REPORT_DIR so CI
# can upload them as workflow artifacts.
#
#   scripts/smoke.sh [build-dir] [report-dir] \
#       [--memory-only|--service-only|--soak-only|--workloads-only]
#   (defaults: build, <build-dir>/smoke-reports)
#
# --memory-only runs the memory-placement section instead — what the CI
# `memory-placement` job invokes (in parallel with the smoke job), so
# the sweep and its schema validator have exactly one definition and
# run exactly once per pipeline.  --service-only does the same for the
# open-loop service section (the CI `service-smoke` job), --soak-only
# for the churn/reclamation section (the CI `soak-smoke` job), and
# --workloads-only for the bnb/des application workloads (the CI
# `workload-smoke` job).
set -euo pipefail

BUILD_DIR="${1:-build}"
REPORT_DIR="${2:-$BUILD_DIR/smoke-reports}"
MODE="${3:-full}"
if [[ ! -x "$BUILD_DIR/bench/klsm_bench" ]]; then
    echo "error: $BUILD_DIR/bench/klsm_bench not found; build first" >&2
    exit 2
fi
mkdir -p "$REPORT_DIR"

check_json() {
    [[ -s "$1" ]] || { echo "empty JSON report: $1" >&2; exit 1; }
    if command -v python3 > /dev/null; then
        python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$1"
    fi
}

# Smoke runs capture per-op latency by default; every record must carry
# the full latency schema (README "Latency metrics").
check_latency() {
    command -v python3 > /dev/null || return 0
    python3 - "$1" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
for record in report["records"]:
    lat = record["latency"]
    for op in ("insert", "delete_min"):
        for field in ("count", "p50", "p99", "max", "dropped_intervals",
                      "buckets"):
            assert field in lat[op], f"latency.{op}.{field} missing"
EOF
}

# Allocation-telemetry schema (README "Memory placement"): every
# k-LSM-family record of an --alloc-stats report must carry the full
# `memory` object.  The field-level checks live in
# scripts/check_memory_schema.py so the CTest wiring test and the CI
# memory-placement job validate against the same definition.
check_memory() {
    command -v python3 > /dev/null || return 0
    python3 "$(dirname "$0")/check_memory_schema.py" "$1" > /dev/null
}

# Memory placement: node-bound pools behind --numa-alloc, telemetry
# behind --alloc-stats.  On a single-node runner `bind` exercises the
# documented fallback path end to end.  Run ONLY via --memory-only (the
# dedicated CI memory-placement job, in parallel with the smoke job) —
# appending it to the full flow too would execute the identical sweep
# twice per pipeline.
memory_section() {
    echo "== memory placement: --numa-alloc x --alloc-stats =="
    # The CI memory-placement sweep: every structure under the bind
    # policy; the validator checks the k-LSM family's memory objects
    # and that the others emit none.
    local json="$REPORT_DIR/memory-bind-all.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload throughput \
        --structure klsm,dlsm,multiqueue,linden,spraylist,heap,centralized,hybrid,numa_klsm \
        --threads 1,2 --alloc-stats --numa-alloc bind \
        --json-out "$json" > /dev/null
    check_json "$json"
    check_memory "$json"
    echo "smoke OK: memory bind, all structures"
    # Every policy through the placement-aware structures.
    for mp in none bind firsttouch; do
        json="$REPORT_DIR/memory-$mp.json"
        "$BUILD_DIR/bench/klsm_bench" --smoke --workload throughput \
            --structure klsm,dlsm,numa_klsm --threads 2 \
            --alloc-stats --numa-alloc "$mp" \
            --json-out "$json" > /dev/null
        check_json "$json"
        check_memory "$json"
        echo "smoke OK: memory policy=$mp"
    done
    # The acceptance shape: numa_klsm pinned compact, bind, telemetry.
    json="$REPORT_DIR/memory-accept.json"
    "$BUILD_DIR/bench/klsm_bench" --structure numa_klsm --pin compact \
        --smoke --alloc-stats --numa-alloc bind \
        --json-out "$json" > /dev/null
    check_json "$json"
    check_memory "$json"
    check_latency "$json"
    echo "smoke OK: memory acceptance shape"
}

# Service-mode schema (README "Service mode & SLOs"): every record of a
# --workload service report must carry schema-valid `service` + `slo`
# objects with the intended >= completion percentile ordering.  The
# field-level checks live in scripts/check_service_schema.py so the
# CTest wiring test and the CI service-smoke job validate against the
# same definition.
check_service() {
    command -v python3 > /dev/null || return 0
    python3 "$(dirname "$0")/check_service_schema.py" "$1" > /dev/null
}

# Open-loop service mode: arrival-driven traffic with SLO verdicts.
# Run ONLY via --service-only (the dedicated CI service-smoke job, in
# parallel with the smoke job), mirroring the memory section's split.
service_section() {
    echo "== service mode: arrival processes x SLO verdicts =="
    # Every arrival process through the k-LSM family.
    local json
    for a in steady poisson spike diurnal; do
        json="$REPORT_DIR/service-$a.json"
        "$BUILD_DIR/bench/klsm_bench" --smoke --workload service \
            --structure klsm,numa_klsm --arrival "$a" --rate 200000 \
            --threads 2 --json-out "$json" > /dev/null
        check_json "$json"
        check_service "$json"
        echo "smoke OK: service arrival=$a"
    done
    # The ISSUE's acceptance shape: poisson at 500k ops/s.
    json="$REPORT_DIR/service-accept.json"
    "$BUILD_DIR/bench/klsm_bench" --workload service \
        --structure klsm,numa_klsm --arrival poisson --rate 500000 \
        --smoke --json-out "$json" > /dev/null
    check_json "$json"
    check_service "$json"
    check_latency "$json"
    echo "smoke OK: service acceptance shape"
    # Identity diff through compare_bench's service path: the SLO
    # verdict and achieved-rate machinery must hold on a self-compare.
    if command -v python3 > /dev/null; then
        python3 "$(dirname "$0")/compare_bench.py" \
            "$json" "$json" > /dev/null
        echo "smoke OK: service self-diff clean"
    fi
    # The sustainable-rate search with a latency objective: probes must
    # converge and emit the sustainable_rate + probes fields.
    json="$REPORT_DIR/service-sustainable.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload service \
        --structure klsm --arrival poisson --rate 100000 --threads 2 \
        --find-sustainable --slo-p99-us 50000 \
        --json-out "$json" > /dev/null
    check_json "$json"
    check_service "$json"
    echo "smoke OK: service --find-sustainable"
}

# Churn soak: the reclamation tier under phase-shifted workloads.  Run
# ONLY via --soak-only (the dedicated CI soak-smoke job), mirroring the
# other sections' split.  Everything here is at --smoke scale: the
# schema and shrink-event gates are enforced, the RSS-plateau verdict is
# not (process overheads dominate a miniature run); the real-duration
# plateau enforcement lives in the nightly soak.
soak_section() {
    echo "== churn soak: reclamation policies x structures =="
    # Every reclamation policy through the k-LSM family.  `none` must
    # keep the seed behavior (no freelist, no shrink); the schema
    # checker verifies the counters stay zero-consistent either way.
    local json
    for rp in none freelist shrink full; do
        json="$REPORT_DIR/churn-$rp.json"
        "$BUILD_DIR/bench/klsm_bench" --smoke --workload churn \
            --structure klsm,dlsm,numa_klsm --threads 2 \
            --reclaim "$rp" --alloc-stats --json-out "$json" > /dev/null
        check_json "$json"
        check_memory "$json"
        echo "smoke OK: churn reclaim=$rp"
    done
    # Churn must also run green on the non-pool baselines (no timeline
    # enforcement; they have no pools to shrink).
    json="$REPORT_DIR/churn-baselines.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload churn \
        --structure linden,heap --threads 2 --json-out "$json" \
        > /dev/null
    check_json "$json"
    echo "smoke OK: churn baselines"
    # The acceptance shape through the enforcing checker (schema +
    # shrink events; plateau stays advisory at smoke scale).
    if command -v python3 > /dev/null; then
        python3 "$(dirname "$0")/check_memory_schema.py" \
            --bench-churn "$BUILD_DIR/bench/klsm_bench" --smoke \
            > /dev/null
        echo "smoke OK: churn acceptance gates"
        # Identity diff through compare_bench's churn path: the RSS
        # high-water and plateau machinery must hold on a self-compare.
        python3 "$(dirname "$0")/compare_bench.py" \
            "$REPORT_DIR/churn-full.json" "$REPORT_DIR/churn-full.json" \
            > /dev/null
        echo "smoke OK: churn self-diff clean"
    fi
}

# Application-workload schema (README "Application workloads"): every
# record of a --workload bnb/des report must carry the full `bnb`/`des`
# accounting block with match/budget verdicts intact.  The field-level
# checks live in scripts/check_workload_schema.py so the CTest wiring
# test and the CI workload-smoke job validate against the same
# definition.
check_workloads() {
    command -v python3 > /dev/null || return 0
    python3 "$(dirname "$0")/check_workload_schema.py" "$1" > /dev/null
}

# Application workloads: branch-and-bound and discrete-event
# simulation through the registry.  Run ONLY via --workloads-only (the
# dedicated CI workload-smoke job), mirroring the other sections'
# split.
workloads_section() {
    echo "== application workloads: bnb + des =="
    # The ISSUE's acceptance shapes: each workload through the paper's
    # queue and the engineered rival.
    local json
    for w in bnb des; do
        json="$REPORT_DIR/workload-$w.json"
        "$BUILD_DIR/bench/klsm_bench" --workload "$w" \
            --structure klsm,multiqueue --smoke \
            --json-out "$json" > /dev/null
        check_json "$json"
        check_workloads "$json"
        check_latency "$json"
        echo "smoke OK: workload $w"
    done
    # Combined selection: one report, records attributed per workload.
    json="$REPORT_DIR/workload-combined.json"
    "$BUILD_DIR/bench/klsm_bench" --workload bnb,des \
        --structure klsm,heap --threads 1,2 --smoke \
        --json-out "$json" > /dev/null
    check_json "$json"
    check_workloads "$json"
    echo "smoke OK: workload bnb,des combined"
    if command -v python3 > /dev/null; then
        # Identity diff through compare_bench's bnb/des paths: the
        # match/budget verdict machinery must hold on a self-compare.
        python3 "$(dirname "$0")/compare_bench.py" \
            "$REPORT_DIR/workload-combined.json" \
            "$REPORT_DIR/workload-combined.json" > /dev/null
        echo "smoke OK: workload self-diff clean"
        # klsm vs multiqueue head-to-head inside each report.
        python3 "$(dirname "$0")/compare_bench.py" --head-to-head \
            "$REPORT_DIR/workload-bnb.json" > /dev/null
        python3 "$(dirname "$0")/compare_bench.py" --head-to-head \
            "$REPORT_DIR/workload-des.json" > /dev/null
        echo "smoke OK: workload head-to-head"
    fi
}

if [[ "$MODE" == "--memory-only" ]]; then
    memory_section
    echo "memory placement stage passed (reports in $REPORT_DIR)"
    exit 0
fi
if [[ "$MODE" == "--service-only" ]]; then
    service_section
    echo "service stage passed (reports in $REPORT_DIR)"
    exit 0
fi
if [[ "$MODE" == "--soak-only" ]]; then
    soak_section
    echo "soak stage passed (reports in $REPORT_DIR)"
    exit 0
fi
if [[ "$MODE" == "--workloads-only" ]]; then
    workloads_section
    echo "workloads stage passed (reports in $REPORT_DIR)"
    exit 0
fi

echo "== examples =="
"$BUILD_DIR/examples/quickstart" > /dev/null
"$BUILD_DIR/examples/task_scheduler" > /dev/null
"$BUILD_DIR/examples/sssp_shortest_paths" 500 4 256 > /dev/null
"$BUILD_DIR/examples/branch_and_bound" > /dev/null
echo "examples OK"

echo "== klsm_bench --smoke =="
for s in klsm dlsm multiqueue linden spraylist heap centralized hybrid \
         numa_klsm; do
    for w in throughput quality sssp; do
        json="$REPORT_DIR/$s-$w.json"
        "$BUILD_DIR/bench/klsm_bench" --smoke --workload "$w" \
            --structure "$s" --threads 1,2 --json-out "$json" > /dev/null
        check_json "$json"
        echo "smoke OK: $s/$w"
    done
done

echo "== klsm_bench --smoke pinning policies =="
# Every placement policy, on the structures that care most about
# placement; on a single-node runner this exercises the topology
# fallback path end to end.
for p in none compact scatter numa_fill; do
    json="$REPORT_DIR/pin-$p.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload throughput \
        --structure klsm,numa_klsm --threads 2 --pin "$p" \
        --json-out "$json" > /dev/null
    check_json "$json"
    echo "smoke OK: pin=$p"
done
# The acceptance shape: a multi-policy sweep in one invocation.
json="$REPORT_DIR/pin-sweep.json"
"$BUILD_DIR/bench/klsm_bench" --smoke --workload throughput \
    --structure numa_klsm --pin compact,scatter --threads 1,2 \
    --json-out "$json" > /dev/null
check_json "$json"
check_latency "$json"
echo "smoke OK: pin sweep"

echo "== buffered handles: engineered multiqueue vs buffered k-LSM =="
# The PR-8 acceptance shape: both rivals in one report, insert buffers
# and the MultiQueue handle buffers on.  The quality workload enforces
# the extended bound rho = (T+1)*k + T*buffer_total internally (it
# fails the run on violation), and compare_bench's head-to-head mode
# diffs the klsm-vs-multiqueue pairs within the single report.
json="$REPORT_DIR/buffered-quality.json"
"$BUILD_DIR/bench/klsm_bench" --smoke --workload quality \
    --structure klsm,multiqueue --threads 2 \
    --insert-buffer 16 --mq-stickiness 8 --mq-buffer 16 \
    --json-out "$json" > /dev/null
check_json "$json"
echo "smoke OK: buffered quality (extended rho enforced)"
json="$REPORT_DIR/buffered-throughput.json"
"$BUILD_DIR/bench/klsm_bench" --smoke --workload throughput \
    --structure klsm,multiqueue --threads 1,2 \
    --insert-buffer 16 --mq-stickiness 8 --mq-buffer 16 \
    --json-out "$json" > /dev/null
check_json "$json"
check_latency "$json"
echo "smoke OK: buffered throughput"
if command -v python3 > /dev/null; then
    python3 "$(dirname "$0")/compare_bench.py" --head-to-head \
        "$REPORT_DIR/buffered-quality.json" > /dev/null
    python3 "$(dirname "$0")/compare_bench.py" --head-to-head \
        "$REPORT_DIR/buffered-throughput.json" > /dev/null
    echo "smoke OK: klsm-vs-multiqueue head-to-head"
fi
echo "== pinned sweeps: compact + scatter across every workload =="
# ROADMAP's pinned-CI item: keep the placement paths exercised on every
# push, for all three workloads, not just throughput.
for w in throughput quality sssp; do
    json="$REPORT_DIR/pin-sweep-$w.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload "$w" \
        --structure klsm,numa_klsm --pin compact,scatter --threads 2 \
        --json-out "$json" > /dev/null
    check_json "$json"
    check_latency "$json"
    echo "smoke OK: pinned sweep $w"
done

echo "== fixed k: klsm quality bounds are hard =="
# k is a constant of each queue, so every klsm quality record checks
# Lemma 2's bound as a hard invariant (rho_hard), never advisorily.
if command -v python3 > /dev/null; then
    python3 - "$REPORT_DIR/klsm-quality.json" \
        "$REPORT_DIR/buffered-quality.json" \
        "$REPORT_DIR/pin-sweep-quality.json" <<'EOF'
import json, sys
checked = 0
for path in sys.argv[1:]:
    for record in json.load(open(path)).get("records", []):
        if (record.get("workload") == "quality"
                and record.get("structure") == "klsm"):
            assert record.get("rho_hard") is True, \
                f"{path}: klsm quality record without rho_hard"
            checked += 1
assert checked, "no klsm quality records found"
EOF
    echo "smoke OK: klsm rho_hard on every quality record"
fi
echo "smoke stage passed (reports in $REPORT_DIR)"
