#!/bin/bash
# Runs every figure bench sequentially, teeing per-bench outputs to results/,
# then the simulator self-performance bench (results/BENCH_simperf.json).
# Honours MUTPS_DB_SIZE / MUTPS_BENCH_SCALE / MUTPS_QUICK and the
# observability knobs MUTPS_TRACE / MUTPS_CYCLES / MUTPS_METRICS (see README).
#
# MUTPS_ASAN=1 first builds and runs the test suite under ASan+UBSan (preset
# "asan", build-asan/) before touching the benches — the sanitizer CI job.
#
# MUTPS_DST=1 first runs the correctness-checking harness (DST seed sweep +
# mutation smoke-check) under the asan preset via run_checks.sh (DESIGN.md §8).
#
# The bench glob includes fig15_resilience (DESIGN.md §9): by default it
# injects a worker crash-stop + restart; MUTPS_FAULTS overrides the profile.
set -euo pipefail
cd "$(dirname "$0")"

if [ "${MUTPS_DST:-0}" != "0" ]; then
  MUTPS_DST=1 ./run_checks.sh
fi

if [ "${MUTPS_ASAN:-0}" != "0" ]; then
  echo "=== ASan+UBSan build + tests (preset asan) ==="
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  ctest --preset asan -j "$(nproc)"
  echo "=== sanitizer tests passed ==="
fi

mkdir -p results
failed=0
# The figure benches (scripts/figure_benches.sh); selfperf, fig16 and fig19
# run separately below.
for name in $(scripts/figure_benches.sh); do
  b="build/bench/$name"
  echo "=== $name ($(date +%H:%M:%S)) ==="
  # pipefail makes a bench crash surface through the tee; a timeout (124) only
  # truncates that bench's data and is reported without failing the sweep.
  status=0
  timeout "${MUTPS_BENCH_TIMEOUT:-1800}" "$b" 2>&1 | tee "results/${name}.txt" \
    || status=$?
  if [ "$status" -eq 124 ]; then
    echo "WARNING: $name timed out; results/${name}.txt is truncated"
  elif [ "$status" -ne 0 ]; then
    echo "ERROR: $name exited with status $status"
    failed=1
  fi
done
if [ "$failed" -ne 0 ]; then
  echo "=== bench sweep FAILED (see errors above) ==="
  exit 1
fi

# Wall-clock perf tracking: how fast the simulator itself runs (DESIGN.md
# "Engine internals & host performance"). Fixed workload — comparable across
# commits on the same machine.
echo "=== selfperf ($(date +%H:%M:%S)) ==="
MUTPS_JSON_OUT=results/BENCH_simperf.json ./build/bench/selfperf 2>&1 \
  | tee results/selfperf.txt

# Million-user-scale sweep via sampled simulation (DESIGN.md §12): 10M keys,
# 2048 closed-loop clients, extrapolated throughput +/- CI95. Validated by
# sample_equiv_test (<= 5% error vs full detail at testable scale).
echo "=== fig16_at_scale ($(date +%H:%M:%S)) ==="
MUTPS_JSON_OUT=results/BENCH_atscale.json ./build/bench/fig16_at_scale \
  2>&1 | tee results/fig16_at_scale.txt

# Multi-node cluster (DESIGN.md §14): 1/2/4/8-node scaling with chain
# replication on, plus the flash-crowd leg — hotset shift mid-run, live
# shard migration by the rebalancer, throughput/P99 timeline and recovery.
echo "=== fig19_cluster ($(date +%H:%M:%S)) ==="
MUTPS_JSON_OUT=results/BENCH_cluster.json ./build/bench/fig19_cluster \
  2>&1 | tee results/fig19_cluster.txt
