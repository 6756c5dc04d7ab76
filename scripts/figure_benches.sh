#!/usr/bin/env bash
# Prints the names of the figure benches, one a line: every bench/*.cc
# except the benches run_benches.sh runs as their own legs after the figure
# loop (selfperf, fig16_at_scale, fig19_cluster) and the google-benchmark
# micro bench (micro_components). run_benches.sh's figure loop,
# run_checks.sh's smoke stage and scripts/bench_identity.sh all read this
# list; a bench binary is build/bench/<name>.
set -euo pipefail
for src in "$(dirname "$0")"/../bench/*.cc; do
  name="$(basename "$src" .cc)"
  case "$name" in
    selfperf|fig16_at_scale|fig19_cluster|micro_components) ;;
    *) echo "$name" ;;
  esac
done
