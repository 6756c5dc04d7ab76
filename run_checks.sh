#!/bin/bash
# Runs the correctness-checking suite (DESIGN.md §8): the DST seed sweep,
# the CR-MR ring / store probe tests, the cluster tests (whose nodes apply
# ops through the single-node executor), the server tests (among them the CR
# hot-path mechanism tests), the RPC and engine tests (the gate's parked and
# polled waits), the allocation regression test, the range-scan example
# (which checks μTPS-T's scan payloads in key order), the mutation
# smoke-check, the golden rows and fig19's cluster output against their
# committed copies, the figure benches at smoke scale, and kvbench's smoke
# pass and audit test.
#
# Default: build the "default" preset and run the checks at the CI seed
# budget (20 seeds per workload per system).
#
# MUTPS_DST=1       additionally builds the "asan" preset and repeats a short
#                   seed sweep with sanitizers + invariant probes on — the
#                   sanitizer CI job for the checking harness — plus obs_test,
#                   whose traced run cut off mid-tune guards the harness's
#                   teardown order.
# MUTPS_DST_SEEDS=N overrides the seed count (the ASan leg defaults to 6
#                   because each simulated run is ~10x slower under ASan).
# MUTPS_DST_FAULTS=1 additionally runs the DST fault-profile sweep (loss+dup,
#                   straggler, crash-restart x seeds under the linearizability
#                   checker, DESIGN.md §9). Implied by MUTPS_DST=1.
# MUTPS_DST_WAL=1   additionally runs the DST crash-recovery sweep: WAL
#                   crash + replay histories under the durability-augmented
#                   checker across 3 fault profiles x 23 seeds x 3 commit
#                   modes (DESIGN.md §10). Implied by MUTPS_DST=1.
# MUTPS_DST_CLUSTER=1 additionally runs the cluster DST sweep: primary-crash
#                   failover, migration racing retransmits, partition-heal
#                   and the other cluster profiles at 153 seeds each
#                   (DESIGN.md §14). Implied by MUTPS_DST=1.
set -euo pipefail
cd "$(dirname "$0")"

# Provenance: every results/ file a reference doc (README, DESIGN,
# EXPERIMENTS and SKILL files) or a script cites must be tracked by git, so
# a cited number always has its file. The change log and the plans are not
# checked: they record history and may name deleted files. In a script, a
# path written by `tee`, `>` or a MUTPS_*_OUT variable is an output, not a
# citation. Globs must match at least one tracked file.
echo "=== results/ citations are tracked ==="
python3 - <<'EOF'
import fnmatch, os, re, subprocess, sys
files = subprocess.run(["git", "ls-files", "-z"], check=True,
                       capture_output=True, text=True).stdout.split("\0")
tracked = [f for f in files if f.startswith("results/")]
docs = re.compile(r"(^|/)(README|DESIGN|EXPERIMENTS|SKILL)\.md$")
cite = re.compile(r"results/[A-Za-z0-9_.*/-]+")
output = re.compile(r"(\btee\s+|>\s*|_OUT=)$")
orphans = []
for f in files:
    script = f.endswith((".sh", ".py"))
    if not (script or docs.search(f)) or not os.path.exists(f):
        continue
    for n, line in enumerate(open(f, encoding="utf-8"), 1):
        for m in cite.finditer(line):
            path = m.group(0).rstrip(".")
            if not script or not output.search(line[:m.start()]):
                if not fnmatch.filter(tracked, path):
                    orphans.append(f"{f}:{n}: {path}")
for o in orphans:
    print(f"cites an untracked results file: {o}", file=sys.stderr)
sys.exit(1 if orphans else 0)
EOF
echo "=== every cited results/ file is tracked ==="

CHECKS='dst_test|dst_determinism_test|dst_fault_test|dst_mutation_test|crmr_queue_test|store_test|fault_test|cluster_test|hotset_test|server_test|example_range_scan_demo|rpc_test|sim_engine_test'

# The default leg also runs alloc_regression_test: every client request
# (RpcCall and its gate) must stay free of heap allocations in steady state.
cmake --preset default >/dev/null
cmake --build --preset default -j "$(nproc)"
ctest --preset default -R "$CHECKS|alloc_regression_test" -j "$(nproc)"

# Golden rows must match the committed snapshot: regenerate in-memory and
# diff the row payload (the WAL/fault/obs layers are null-gated, so a drift
# here means a byte-determinism regression or a stale golden_expected.inc —
# run scripts/regen_golden.sh if the change is intentional).
echo "=== golden rows up-to-date check ==="
MUTPS_GOLDEN_REGEN=1 ./build/tests/golden_test | grep '^    "' >/tmp/golden_rows.$$
grep '^    "' tests/golden_expected.inc >/tmp/golden_committed.$$
if ! diff -u /tmp/golden_committed.$$ /tmp/golden_rows.$$; then
  rm -f /tmp/golden_rows.$$ /tmp/golden_committed.$$
  echo "golden rows are stale: run scripts/regen_golden.sh and commit" >&2
  exit 1
fi
rm -f /tmp/golden_rows.$$ /tmp/golden_committed.$$
echo "=== golden rows match ==="

# Cluster simulation pinned byte-for-byte (DESIGN.md §14): fig19_cluster is
# a pure function of its seed and runs in under a second, so its output must
# equal the committed file. The one exception is the "host" line, which
# records the commit, build and machine the file came from; every other byte
# is compared. A difference is a change in cluster behaviour, printed as a
# diff of the committed file against the new output; if it is intended,
# rerun the bench and commit the new file.
echo "=== fig19_cluster output matches results/BENCH_cluster.json ==="
MUTPS_BENCH_SCALE=1 MUTPS_JSON_OUT=/tmp/bench_cluster.$$ \
  ./build/bench/fig19_cluster >/dev/null
if ! cmp <(grep -v '^  "host": ' /tmp/bench_cluster.$$) \
         <(grep -v '^  "host": ' results/BENCH_cluster.json); then
  diff -u <(grep -v '^  "host": ' results/BENCH_cluster.json) \
          <(grep -v '^  "host": ' /tmp/bench_cluster.$$) || true
  rm -f /tmp/bench_cluster.$$
  echo "fig19_cluster no longer reproduces results/BENCH_cluster.json" >&2
  exit 1
fi
rm -f /tmp/bench_cluster.$$
echo "=== fig19_cluster output matches ==="

# kvbench's own checks (kvbench/README.md), both registered in its ctest:
# kvbench_smoke runs `run.py --smoke` (every workload at smoke scale, untraced
# and traced, checking its correctness verdict and metric names against
# BENCHMARK.json); kvbench_audit_test shows the store audit catches corruption.
echo "=== kvbench smoke + audit test (.bench_build) ==="
cmake -S kvbench -B .bench_build -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build .bench_build -j "$(nproc)" >/dev/null
ctest --test-dir .bench_build --output-on-failure --no-tests=error
echo "=== kvbench checks passed ==="

# Sampled-simulation validation (DESIGN.md §12): extrapolated estimates must
# stay within the 5% error bound of full-detail runs, and sampled rows must
# be byte-deterministic per (seed, window plan) — in-process and in a fresh
# subprocess. --no-tests=error so a silently unregistered test fails the
# stage instead of vacuously passing.
echo "=== MUTPS_SAMPLE validation (error bound + determinism) ==="
ctest --preset default -R 'sample_equiv_test|sample_determinism_test' \
  --no-tests=error -j "$(nproc)"
echo "=== sampled mode within bound and deterministic ==="

# Host-performance floor (DESIGN.md §13): the selfperf suite's per-leg
# events/s must stay within 15% of the committed results/BENCH_simperf.json,
# and its peak RSS (`peak_rss_kb`) may exceed the committed value by at most
# 10%. A miss means a host-performance regression. The committed file records the
# host CPU count it was measured with; on a host with a different count the
# numbers do not represent this machine, so the stage warns and skips
# instead of comparing across machines (MUTPS_SKIP_PERF_FLOOR=1 skips it
# unconditionally). host_cpus and peak_rss_kb are read from the file's "host"
# member, or from the top level in files written before it existed; the
# stage prints both files' commit and build type so a miss can be traced.
if [ "${MUTPS_SKIP_PERF_FLOOR:-0}" = "0" ] && \
   [ -f results/BENCH_simperf.json ]; then
  echo "=== host perf floor (selfperf vs results/BENCH_simperf.json) ==="
  cmake --build --preset default --target selfperf -j "$(nproc)" >/dev/null
  # Up to 3 attempts, per-leg max across attempts: right after the test
  # suite the host is often still shedding load (cgroup CPU-bandwidth
  # throttle budgets refill over seconds), so a first run can miss by noise
  # alone. Later attempts idle first; a leg that misses every attempt is a
  # real regression.
  floor=miss
  for attempt in 1 2 3; do
    if [ "$attempt" -gt 1 ]; then
      echo "floor miss on attempt $((attempt - 1)); idling 15s and retrying"
      sleep 15
    fi
    MUTPS_JSON_OUT=/tmp/simperf_floor.$attempt.$$ \
      ./build/bench/selfperf >/dev/null
    status=0
    python3 - results/BENCH_simperf.json \
        /tmp/simperf_floor.*.$$ <<'EOF' || status=$?
import json, sys
def host(d, key, default=None):
    return d.get("host", d).get(key, default)
def build(d):
    return (f'{host(d, "git_sha", "unrecorded")} '
            f'({host(d, "build_type", "unrecorded")})')
base = json.load(open(sys.argv[1]))
print(f'committed floor built from {build(base)}')
cur_rows = {}
cur_rss = None
for path in sys.argv[2:]:
    cur = json.load(open(path))
    print(f'this run built from {build(cur)}')
    if host(cur, "host_cpus") != host(base, "host_cpus"):
        print(f'WARNING: the committed floor was measured on '
              f'{host(base, "host_cpus")} host CPUs and this run on '
              f'{host(cur, "host_cpus")}; not comparing across machines '
              '(rerun bench/selfperf here to rebaseline)')
        sys.exit(3)
    rss = host(cur, "peak_rss_kb", 0)
    cur_rss = rss if cur_rss is None else min(cur_rss, rss)
    for r in cur["benches"] + cur.get("atscale_benches", []):
        prev = cur_rows.get(r["name"])
        if prev is None or r["events_per_sec"] > prev["events_per_sec"]:
            cur_rows[r["name"]] = r
bad = []
for b in base["benches"] + base.get("atscale_benches", []):
    c = cur_rows.get(b["name"])
    if c is None:
        bad.append(f'{b["name"]}: missing from current run')
        continue
    ratio = c["events_per_sec"] / b["events_per_sec"]
    flag = "  <-- FLOOR MISS" if ratio < 0.85 else ""
    print(f'{b["name"]:32s} {b["events_per_sec"]:12.0f} -> '
          f'{c["events_per_sec"]:12.0f} ev/s ({ratio:5.2f}x){flag}')
    if ratio < 0.85:
        bad.append(f'{b["name"]}: {ratio:.2f}x of committed events/s')
base_rss = host(base, "peak_rss_kb")
ratio = cur_rss / base_rss
flag = "  <-- RSS CEILING MISS" if ratio > 1.10 else ""
print(f'{"peak_rss_kb":32s} {base_rss:12d} -> {cur_rss:12d} KB   ({ratio:5.2f}x){flag}')
if ratio > 1.10:
    bad.append(f'peak_rss_kb: {ratio:.2f}x of committed')
if bad:
    print("host perf floor not met this attempt:", file=sys.stderr)
    for m in bad:
        print("  " + m, file=sys.stderr)
    sys.exit(1)
EOF
    if [ "$status" = 0 ]; then
      floor=ok
      break
    elif [ "$status" = 3 ]; then
      floor=skip
      break
    fi
  done
  rm -f /tmp/simperf_floor.*.$$
  if [ "$floor" = skip ]; then
    echo "=== host perf floor skipped (host CPU count differs) ==="
  elif [ "$floor" != ok ]; then
    echo "host perf floor violated (events/s >15% below or peak RSS >10% above committed on every attempt)" >&2
    exit 1
  else
    echo "=== host perf within 15% of committed floor, peak RSS within 10% ==="
  fi
else
  echo "=== host perf floor skipped ==="
fi

# Figure benches at smoke scale: every bench of scripts/figure_benches.sh,
# the list run_benches.sh's figure loop runs, on a small database and short
# windows, in parallel. Only the exit status is checked — a bench that
# aborts (e.g. a CHECK such as TestBed::Run's one-run-per-bed rule) fails
# the stage here instead of in a full sweep. Output is discarded; a
# failing bench's stderr is kept.
echo "=== figure benches at smoke scale ==="
mapfile -t benches < <(scripts/figure_benches.sh)
printf 'build/bench/%s\n' "${benches[@]}" |
  MUTPS_QUICK=1 MUTPS_DB_SIZE=20000 MUTPS_BENCH_SCALE=0.1 \
  xargs -P "$(nproc)" -I{} sh -c \
    '"$1" >/dev/null || { echo "$1 exited with status $?" >&2; exit 1; }' \
    _ {} || { echo "a figure bench failed at smoke scale" >&2; exit 1; }
echo "=== ${#benches[@]} figure benches exited 0 ==="

if [ "${MUTPS_DST_FAULTS:-0}" != "0" ] || [ "${MUTPS_DST:-0}" != "0" ]; then
  echo "=== DST fault-profile sweep (3 profiles x extra seeds) ==="
  MUTPS_DST_FAULT_SEEDS="${MUTPS_DST_FAULT_SEEDS:-12}" \
    ./build/tests/dst/dst_fault_test --gtest_filter='DstFaults.*'
  echo "=== fault-profile sweep passed ==="
fi

if [ "${MUTPS_DST_WAL:-0}" != "0" ] || [ "${MUTPS_DST:-0}" != "0" ]; then
  echo "=== DST crash-recovery sweep (3 profiles x 23 seeds x 3 commit modes) ==="
  # 3 fixed seeds + MUTPS_DST_FAULT_SEEDS extra = 23 seeds per cell (~3 s).
  MUTPS_DST_FAULT_SEEDS="${MUTPS_DST_FAULT_SEEDS:-20}" \
    ./build/tests/dst/dst_fault_test --gtest_filter='DstWal.*'
  echo "=== crash-recovery sweep passed ==="
fi

if [ "${MUTPS_DST_CLUSTER:-0}" != "0" ] || [ "${MUTPS_DST:-0}" != "0" ]; then
  echo "=== DST cluster sweep (failover/migration/partition x 153 seeds) ==="
  # 3 fixed seeds + 150 extra = 153 seeds per profile: the lease and
  # refused-replication bugs each needed more than 100 seeds to show.
  MUTPS_DST_FAULT_SEEDS="${MUTPS_DST_FAULT_SEEDS:-150}" \
    ./build/tests/dst/dst_fault_test --gtest_filter='DstCluster.*'
  echo "=== cluster sweep passed ==="
fi

if [ "${MUTPS_DST:-0}" != "0" ]; then
  echo "=== DST short sweep under ASan+UBSan (preset asan) ==="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)"
  MUTPS_DST_SEEDS="${MUTPS_DST_SEEDS:-6}" \
    ctest --preset asan -R "$CHECKS|obs_test" -j "$(nproc)"
  echo "=== sanitized DST sweep passed ==="
fi
