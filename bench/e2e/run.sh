#!/usr/bin/env bash
# Runs every bench/e2e workload, prints "workload metric value unit" lines,
# writes build-e2e/results.json, and exits non-zero on any correctness
# violation or invalid run. See bench/e2e/README.md.
#
#   bench/e2e/run.sh [--seed=N] [--seconds=S] [--traced]
set -euo pipefail
cd "$(dirname "$0")/../.."
args=(--all)
for a in "$@"; do
  case "$a" in
    --seed=*) args+=(--seed "${a#--seed=}") ;;
    --seconds=*) args+=(--seconds "${a#--seconds=}") ;;
    --traced) args+=(--trace 1) ;;
    *) echo "usage: $0 [--seed=N] [--seconds=S] [--traced]" >&2; exit 2 ;;
  esac
done
exec python3 bench/e2e/run.py "${args[@]}"
