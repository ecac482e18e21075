#!/bin/sh
# Smoke-runs the real-runtime benchmark: every workload untraced for one
# second and traced for four. Each run must exit 0 and report "correct":
# true on its last line (every op verified, every self-check passed).
#
# A traced run alternates 4 untraced and traced rounds and checks the
# untraced rounds' user + sys per op against the median of their
# half-second windows' CPU per op. At one second each round is a single
# quarter-second window, so that "median" is the lower of the two
# untraced rounds, and a 20% drift of the host between rounds trips the
# 10% bound. Four seconds give every round two full windows.
#
# Usage: scripts/check_perfbench.sh [perfbench-binary]   (default:
# build/perfbench)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
binary=${1:-"$repo_root/build/perfbench"}

if [ ! -x "$binary" ]; then
  echo "check_perfbench: no perfbench binary at $binary (build first)" >&2
  exit 1
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT

failures=0
for workload in echo1-seq echo3-4k replfs3-rw; do
  for trace in 0 1; do
    seconds=1
    if [ "$trace" -eq 1 ]; then
      seconds=4
    fi
    if ! "$binary" --workload "$workload" --seed 1 --seconds "$seconds" \
        --trace "$trace" >"$out" 2>&1; then
      echo "FAIL: $workload --trace $trace exited nonzero"
      sed 's/^/  /' "$out"
      failures=$((failures + 1))
    elif ! tail -n 1 "$out" | grep -q '^{"correct": true,'; then
      echo "FAIL: $workload --trace $trace did not report correct"
      sed 's/^/  /' "$out"
      failures=$((failures + 1))
    else
      echo "ok: $workload --trace $trace"
    fi
  done
done

if [ "$failures" -ne 0 ]; then
  echo "check_perfbench: $failures run(s) failed" >&2
  exit 1
fi
