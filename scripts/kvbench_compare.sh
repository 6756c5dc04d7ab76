#!/usr/bin/env bash
# Paired kvbench comparison of a parent commit against this checkout.
#
#   ./scripts/kvbench_compare.sh PARENT [SEEDS]
#
# PARENT is any git revision (e.g. HEAD~1 or a sha); SEEDS is a space- or
# comma-separated seed list (default 1-10: a gain needs ten pairs). The
# parent is exported with `git archive`, this checkout's tracked and
# untracked-but-not-ignored files are copied beside it (equal-length paths:
# host timings depend on code layout), and each side's kvbench is built the
# way kvbench/run.py builds it.
# Every workload then runs on every seed at --seconds 16 (BENCHMARK.json's
# run_seconds), alternating which side goes first from seed to seed.
#
# For each end-to-end metric the summary prints both medians, the parent's
# quartiles, the median delta, how many pairs the change won, and whether the
# change stays within the metric's BENCHMARK.json bound. A run that exits
# non-zero or reports itself incorrect is listed and fails the script.
#
# After the pairs each side makes one --traced run on the first seed of each
# workload, and the script prints every simulated per-layer metric whose
# value differs between the sides (e.g. sut.hotset.hit_ratio, sut.core.ncr,
# sut.stage.index_ns): the layers a change moved. Host-time metrics differ on
# every run and are left out.
#
# Environment:
#   KVBENCH_WORKLOADS  space-separated subset of the workloads (default: all)
#   KVBENCH_WORKDIR    where to export, build and log (default: a mktemp dir
#                      under ${TMPDIR:-/tmp}; reused builds are rebuilt)
set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '2,29p' "$0" >&2
  exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
parent_rev="$1"
seeds="${2:-1 2 3 4 5 6 7 8 9 10}"
seeds="${seeds//,/ }"
spec="$repo/BENCHMARK.json"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
workloads="${KVBENCH_WORKLOADS:-$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")}"
jobs="$(( $(nproc) < 4 ? $(nproc) : 4 ))"
work="${KVBENCH_WORKDIR:-$(mktemp -d "${TMPDIR:-/tmp}/kvbench_compare.XXXXXX")}"
mkdir -p "$work"

parent_sha="$(git -C "$repo" rev-parse --short=12 "$parent_rev")"
change_sha="$(git -C "$repo" rev-parse --short=12 HEAD)"
if ! git -C "$repo" diff --quiet HEAD; then
  change_sha="$change_sha+dirty"
fi

echo "# parent $parent_sha, change $change_sha, seeds: $seeds, seconds $seconds" >&2
echo "# workdir $work" >&2

rm -rf "$work/parent" "$work/change"
mkdir -p "$work/parent" "$work/change"
git -C "$repo" archive "$parent_rev" | tar -x -C "$work/parent"
(cd "$repo" && git ls-files -co --exclude-standard -z |
   tar --null -T - -cf -) | tar -x -C "$work/change"

gen=()
if command -v ninja > /dev/null; then
  gen=(-G Ninja)
fi
for side in parent change; do
  echo "# building $side" >&2
  cmake -S "$work/$side/kvbench" -B "$work/$side/.bench_build" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo "${gen[@]}" > "$work/$side.build.log"
  cmake --build "$work/$side/.bench_build" --target kvbench -j "$jobs" \
    >> "$work/$side.build.log"
done

results="$work/results.tsv"
traced="$work/traced.tsv"
: > "$results"
: > "$traced"
run_one() {  # side workload seed [traced]
  local side="$1" w="$2" s="$3" sha
  sha="$([[ $side == parent ]] && echo "$parent_sha" || echo "$change_sha")"
  local log="$work/logs/$w.$s.$side${4:+.traced}.txt"
  local extra=() out="$results" rc=0
  if [[ -n "${4:-}" ]]; then
    mkdir -p "$work/traced/$side"
    extra=(--traced "$work/traced/$side")
    out="$traced"
  fi
  "$work/$side/.bench_build/kvbench" --workload "$w" --seed "$s" \
    --seconds "$seconds" --sha "$sha" "${extra[@]}" > "$log" || rc=$?
  printf '%s\t%s\t%s\t%s\t%s\n' "$w" "$s" "$side" "$rc" "$log" >> "$out"
}
mkdir -p "$work/logs"
for w in $workloads; do
  i=0
  for s in $seeds; do
    echo "# $w seed $s" >&2
    if (( i % 2 == 0 )); then
      run_one parent "$w" "$s"
      run_one change "$w" "$s"
    else
      run_one change "$w" "$s"
      run_one parent "$w" "$s"
    fi
    i=$((i + 1))
  done
done
first_seed="${seeds%% *}"
for w in $workloads; do
  echo "# $w seed $first_seed traced" >&2
  run_one parent "$w" "$first_seed" traced
  run_one change "$w" "$first_seed" traced
done

python3 - "$spec" "$results" "$traced" << 'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
metrics = spec["end_to_end"]
broken = []


def load(path):
    """Rows of a results file, each with its run's result object."""
    for w, seed, side, rc, log in (line.rstrip("\n").split("\t")
                                   for line in open(path)):
        lines = open(log).read().strip().splitlines()
        try:
            res = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            res = None
        if rc != "0" or res is None or not res.get("correct"):
            broken.append(f"{w} seed {seed} {side}: exit {rc}, see {log}")
        yield w, seed, side, res


rows = list(load(sys.argv[2]))
runs = {(w, seed, side): res for w, seed, side, res in rows
        if res is not None}


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


ok = not broken
print(f"{'workload':<16} {'metric':<12} {'parent':>10} {'[q1, q3]':>22} "
      f"{'change':>10} {'delta':>8} {'won':>6} {'bound':>6}  verdict")
for w in dict.fromkeys(r[0] for r in rows):
    seeds = [s for s in dict.fromkeys(r[1] for r in rows if r[0] == w)
             if (w, s, "parent") in runs and (w, s, "change") in runs]
    if not seeds:
        continue
    for m in metrics:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        p = [runs[(w, s, "parent")]["metrics"][name]["value"] for s in seeds]
        c = [runs[(w, s, "change")]["metrics"][name]["value"] for s in seeds]
        pm, cm = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        delta = (cm - pm) / pm if pm else 0.0
        won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        worse = -delta if higher else delta
        verdict = "ok" if worse <= bound else "WORSE"
        ok = ok and verdict == "ok"
        print(f"{w:<16} {name:<12} {pm:>10.4g} [{q1:>9.4g}, {q3:>9.4g}] "
              f"{cm:>10.4g} {delta:>+8.1%} {won:>3}/{len(seeds):<2} "
              f"{bound:>6.2f}  {verdict}")
    failed = {side: sum(runs[(w, s, side)]["failed"] for s in seeds)
              for side in ("parent", "change")}
    attempted = {side: sum(runs[(w, s, side)]["attempted"] for s in seeds)
                 for side in ("parent", "change")}
    print(f"{w:<16} {'failed':<12} {failed['parent']:>10} {'':>22} "
          f"{failed['change']:>10}   (of {attempted['parent']} / "
          f"{attempted['change']} attempted)")

# Traced runs: the simulated per-layer metrics that differ. Host timings
# (units s and ns, and obs.* ratios of them) are noise here.
traced = {(w, side): (seed, res["metrics"])
          for w, seed, side, res in load(sys.argv[3]) if res is not None}
for w in dict.fromkeys(w for w, _ in traced):
    if (w, "parent") not in traced or (w, "change") not in traced:
        continue
    seed, p = traced[(w, "parent")]
    c = traced[(w, "change")][1]
    print(f"\n{w} seed {seed} traced: simulated per-layer metrics that differ")
    differ = 0
    for name, m in p.items():
        if m["unit"] in ("s", "ns") or name.startswith("obs.") or name not in c:
            continue
        a, b = m["value"], c[name]["value"]
        if a != b:
            differ += 1
            delta = f"{(b - a) / a:+8.1%}" if a else ""
            print(f"  {name:<28} {a:>12.6g} {b:>12.6g} {delta} {m['unit']}")
    if not differ:
        print("  (none)")
for b in broken:
    print(f"BROKEN: {b}")
sys.exit(0 if ok and not broken else 1)
EOF
