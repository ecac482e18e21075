#!/bin/sh
# Chaos on the real runtime: drives `circus nemesis` against a live
# loopback testbed for several seeded schedules. Every run must come
# back with a clean Section 4.2 wire audit, post-heal convergence of
# the replicated counter, and no unexpected process deaths — the same
# acceptance bar the simulated chaos sweep holds, now against real
# kernels, real SIGKILLs, and real UDP.
#
# The per-seed results are folded into BENCH_chaos_rt.json (written to
# the current directory, like the bench binaries do) so the availability
# table lands next to the other reproduced figures. The file is listed
# in check_bench_trend.sh's wall-clock skip set: the numbers depend on
# whatever machine runs this, so only presence/shape is baselined.
#
# Usage: scripts/check_chaos_rt.sh [build-dir] [seeds]
#        (default: build "1 2 3 4 5")
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
seeds=${2:-"1 2 3 4 5"}

circus_bin="$build_dir/src/rt/circus"
if [ ! -x "$circus_bin" ]; then
  echo "check_chaos_rt: missing $circus_bin (build first)" >&2
  exit 1
fi

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

failures=0
base_port=28500
for s in $seeds; do
  run_dir="$out_dir/seed$s"
  mkdir -p "$run_dir"
  if "$circus_bin" nemesis --seed "$s" --members 3 --horizon_s 20 \
      --actions 5 --base_port "$base_port" --dir "$run_dir" \
      --json "$out_dir/nem_$s.json" >"$run_dir/nemesis.log" 2>&1; then
    grep '^nemesis: PASS' "$run_dir/nemesis.log" | sed "s/^nemesis:/PASS: seed=$s/"
  else
    echo "FAIL: nemesis seed=$s (violations, non-convergence, or crash)"
    tail -15 "$run_dir/nemesis.log" | sed 's/^/  /'
    failures=$((failures + 1))
  fi
  base_port=$((base_port + 100))
done

if [ "$failures" -ne 0 ]; then
  echo "check_chaos_rt: $failures failing nemesis run(s)" >&2
  exit 1
fi

python3 - "$out_dir" <<'EOF' || exit 1
import glob, json, sys

AVAILABILITY_FLOOR = 0.5   # chaos slows calls; it must not kill availability

rows = []
for path in sorted(glob.glob(sys.argv[1] + "/nem_*.json")):
    with open(path) as fh:
        r = json.load(fh)
    rows.append({
        "seed": r["seed"],
        "actions": r["actions"],
        "kills": r["kills"],
        "partitions": r["partitions"],
        "loss_bursts": r["loss_bursts"],
        "latency_spikes": r["latency_spikes"],
        "restarts": r["restarts"],
        "calls": r["calls"],
        "failed": r["failed"],
        "availability": r["availability"],
        "convergence_attempts": r["convergence_attempts"],
        "violations": r["violations"],
        "audit_records": r["audit_records"],
    })
rows.sort(key=lambda r: r["seed"])
ok = True
for r in rows:
    if r["availability"] < AVAILABILITY_FLOOR:
        print(f"FAIL: seed={r['seed']} availability {r['availability']} "
              f"below floor {AVAILABILITY_FLOOR}")
        ok = False
bench = {
    "bench": "chaos_rt",
    "quick": True,
    "notes": {"members": 3, "horizon_s": 20, "actions_per_seed": 5,
              "transport": "real loopback UDP (rt::Runtime)"},
    "tables": {"chaos_rt": rows},
}
with open("BENCH_chaos_rt.json", "w") as fh:
    json.dump(bench, fh)
    fh.write("\n")
print(f"wrote BENCH_chaos_rt.json ({len(rows)} seed(s))")
sys.exit(0 if ok else 1)
EOF

echo "check_chaos_rt: all seeds clean (wire audit + convergence on live testbed)"
