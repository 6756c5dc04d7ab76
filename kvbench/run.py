#!/usr/bin/env python3
"""Builds kvbench and runs it. Run from the repository root.

  python3 kvbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
      One run of one workload. With --trace 1 the run also writes its traces
      and per-layer JSON under .bench_build/traced/. The last line of stdout
      is the result object.
  python3 kvbench/run.py --repeat K [--seed N] [--seconds S] [--workload W]
      K runs of every workload in BENCHMARK.json (or of W alone), each in a
      fresh process with seeds N, N+1, ..., N+K-1, then every metric's
      median and quartiles. Varying the seed gives the spread that the
      bounds in BENCHMARK.json allow for: one seed's simulated metrics
      repeat exactly.
  python3 kvbench/run.py --smoke [--binary PATH]
      Every workload at smoke scale, untraced and traced; checks exit codes,
      the correctness verdict and the metric names and units against
      BENCHMARK.json.

The build is the optimized (RelWithDebInfo) kvbench project in kvbench/,
configured into .bench_build/ at the repository root.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the kvbench binary; returns its path."""
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "kvbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return BUILD / "kvbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                          "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_kvbench(binary, workload, seed, seconds, traced_dir=None,
                smoke=False, capture=True):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--sha", git_sha()]
    if traced_dir is not None:
        Path(traced_dir).mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", str(traced_dir)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True, timeout=RUN_TIMEOUT_S)


def result_of(proc):
    """The result object on the last stdout line, or None."""
    lines = (proc.stdout or "").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def metric_lines(proc, workload):
    """{metric: (value, unit)} from the "workload metric value unit" lines."""
    out = {}
    for line in (proc.stdout or "").splitlines():
        f = line.split()
        if len(f) == 4 and f[0] == workload:
            out[f[1]] = (float(f[2]), f[3])
    return out


def repeat(binary, workloads, seed, seconds, k):
    ok = True
    print(f"{'workload':<16} {'metric':<14} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8}  unit")
    for w in workloads:
        values = {}
        for i in range(k):
            proc = run_kvbench(binary, w, seed + i, seconds)
            res = result_of(proc)
            if proc.returncode != 0 or res is None or not res["correct"]:
                log(proc.stdout)
                log(f"{w}: run {i + 1} failed (exit {proc.returncode})")
                ok = False
                continue
            for name, (value, unit) in metric_lines(proc, w).items():
                values.setdefault(name, (unit, []))[1].append(value)
        for name, (unit, vs) in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else \
                (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{w:<16} {name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%}  {unit}", flush=True)
    return ok


def smoke_check(binary, w, trace, expected, traced_dir):
    """Problems with one smoke-scale run, as a list of strings."""
    proc = run_kvbench(binary, w, 1, 0, traced_dir if trace else None,
                       smoke=True)
    res = result_of(proc)
    got = {n: m["unit"] for n, m in (res or {}).get("metrics", {}).items()}
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}")
    if res is None or not res["correct"] or res["failed"]:
        problems.append("no correct, failure-free result")
    if got != expected:
        diff = sorted(set(got.items()) ^ set(expected.items()))
        problems.append(f"metrics differ from BENCHMARK.json: {diff}")
    if trace and not (traced_dir / f"{w}.layers.json").exists():
        problems.append("no per-layer JSON written")
    return problems


def smoke(binary, workloads, spec):
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    traced_dir = Path(binary).parent / "smoke-traced"
    traced_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(w, t) for w in workloads for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, 4)) as pool:
        found = pool.map(lambda j: smoke_check(binary, j[0], j[1],
                                               expected[j[1]], traced_dir),
                         jobs)
        ok = True
        for (w, t), problems in zip(jobs, found):
            print(f"{w} trace={t}: {'; '.join(problems) or 'ok'}", flush=True)
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this kvbench binary, do not build")
    args = ap.parse_args()

    spec = bench_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        binary = Path(args.binary) if args.binary else build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            FileNotFoundError) as e:
        log(f"kvbench build failed: {e}")
        return 1

    if args.smoke:
        return 0 if smoke(binary, workloads, spec) else 1
    if args.repeat:
        chosen = [args.workload] if args.workload else workloads
        return 0 if repeat(binary, chosen, args.seed, args.seconds,
                           args.repeat) else 1
    if not args.workload:
        ap.error("--workload, --repeat or --smoke is required")
    traced = BUILD / "traced" if args.trace else None
    return run_kvbench(binary, args.workload, args.seed, args.seconds, traced,
                       capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
