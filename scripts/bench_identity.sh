#!/usr/bin/env bash
# Checks that figure benches print the same stdout at a parent commit and in
# this checkout.
#
#   ./scripts/bench_identity.sh PARENT [BENCH...]
#
# PARENT is any git revision (e.g. HEAD~1 or a sha); BENCH names a bench
# binary (default: every figure bench in scripts/figure_benches.sh). The
# parent is exported with `git archive`, this checkout's tracked and
# untracked-but-not-ignored files are copied beside it, and both trees build
# the named benches (RelWithDebInfo). Every bench then runs on both sides,
# up to min(nproc, 4) processes at a time, under the caller's MUTPS_*
# environment; MUTPS_QUICK, MUTPS_DB_SIZE and MUTPS_BENCH_SCALE default to
# the smoke scale (1, 20000, 0.1). The figure benches are deterministic, so
# any difference is a change in what they print.
#
# selfperf and fig19_cluster print wall times, so for them the script
# compares the JSON each side writes to its own MUTPS_JSON_OUT instead: leg
# by leg (a named entry of a bench list, or another top-level member),
# without `host` and the wall-clock members (wall_s, setup_s,
# events_per_sec, total_wall_s, atscale_wall_s). Every other bench ignores
# MUTPS_JSON_OUT.
#
# Prints one line per bench and the diff of each that differs. Exits 1 if a
# bench's stdout differs or a bench exits non-zero on either side; the work
# directory (exports, builds, outputs) is then kept and named, otherwise it
# is removed.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '2,28p' "$0" >&2
  exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
parent_rev="$1"
shift
if [[ $# -gt 0 ]]; then
  benches=("$@")
else
  mapfile -t benches < <("$repo/scripts/figure_benches.sh")
fi
export MUTPS_QUICK="${MUTPS_QUICK-1}"
export MUTPS_DB_SIZE="${MUTPS_DB_SIZE-20000}"
export MUTPS_BENCH_SCALE="${MUTPS_BENCH_SCALE-0.1}"
jobs="$(( $(nproc) < 4 ? $(nproc) : 4 ))"
work="$(mktemp -d "${TMPDIR:-/tmp}/bench_identity.XXXXXX")"

echo "# parent $(git -C "$repo" rev-parse --short=12 "$parent_rev")," \
     "MUTPS_QUICK=$MUTPS_QUICK MUTPS_DB_SIZE=$MUTPS_DB_SIZE" \
     "MUTPS_BENCH_SCALE=$MUTPS_BENCH_SCALE" >&2
mkdir -p "$work/parent" "$work/change" "$work/out"
git -C "$repo" archive "$parent_rev" | tar -x -C "$work/parent"
(cd "$repo" && git ls-files -co --exclude-standard -z |
   tar --null -T - -cf -) | tar -x -C "$work/change"

gen=()
if command -v ninja > /dev/null; then
  gen=(-G Ninja)
fi
for side in parent change; do
  echo "# building $side" >&2
  cmake -S "$work/$side" -B "$work/$side/build" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo "${gen[@]}" > "$work/$side.build.log"
  cmake --build "$work/$side/build" -j "$(nproc)" --target "${benches[@]}" \
    >> "$work/$side.build.log"
done

# One job per (bench, side); a bench's two sides run next to each other.
for b in "${benches[@]}"; do
  printf '%s parent\n%s change\n' "$b" "$b"
done | xargs -P "$jobs" -L 1 sh -c \
  'MUTPS_JSON_OUT="$0/out/$1.$2.json" \
     "$0/$2/build/bench/$1" > "$0/out/$1.$2.txt" 2> "$0/out/$1.$2.err";
   echo $? > "$0/out/$1.$2.status"' "$work"

# Compares two JSON outputs leg by leg; prints each leg that differs and
# exits 1 if any does, else prints the number of legs.
json_legs_equal() {
  python3 - "$1" "$2" <<'PY'
import json
import sys

WALL = {"wall_s", "setup_s", "events_per_sec", "total_wall_s",
        "atscale_wall_s"}


def strip(x):
    if isinstance(x, dict):
        return {k: strip(v) for k, v in x.items() if k not in WALL}
    if isinstance(x, list):
        return [strip(v) for v in x]
    return x


def legs(path):
    doc = json.load(open(path))
    doc.pop("host", None)
    out = {}
    for key, val in strip(doc).items():
        if isinstance(val, list) and val and all(
                isinstance(e, dict) and "name" in e for e in val):
            for e in val:
                out[f"{key}/{e['name']}"] = e
        else:
            out[key] = val
    return out


parent, change = legs(sys.argv[1]), legs(sys.argv[2])
bad = [k for k in sorted(set(parent) | set(change))
       if parent.get(k) != change.get(k)]
for k in bad:
    print(f"  leg {k}:\n    parent {parent.get(k)}\n    change {change.get(k)}")
if bad:
    sys.exit(1)
print(len(parent))
PY
}

ok=1
for b in "${benches[@]}"; do
  ps="$(cat "$work/out/$b.parent.status")"
  cs="$(cat "$work/out/$b.change.status")"
  if [[ "$ps" != 0 || "$cs" != 0 ]]; then
    echo "FAILED     $b: exit $ps (parent), $cs (change); see $work/out/$b.*.err"
    ok=0
  elif [[ "$b" = selfperf || "$b" = fig19_cluster ]]; then
    if legs="$(json_legs_equal "$work/out/$b.parent.json" \
                               "$work/out/$b.change.json")"; then
      echo "identical  $b ($legs legs)"
    else
      echo "DIFFERENT  $b"
      echo "$legs"
      ok=0
    fi
  elif diff -u --label "$b (parent)" --label "$b (change)" \
         "$work/out/$b.parent.txt" "$work/out/$b.change.txt"; then
    echo "identical  $b ($(wc -l < "$work/out/$b.change.txt") lines)"
  else
    echo "DIFFERENT  $b"
    ok=0
  fi
done
if [[ "$ok" = 1 ]]; then
  rm -rf "$work"
  exit 0
fi
echo "# kept $work" >&2
exit 1
