#!/bin/sh
# Checks that a change leaves the simulation's outputs byte-identical:
# runs every bench of two build trees with --quick --json, plus one
# traced `bench_chaos --quick --trace` run, and diffs each tree's tables
# (stdout), JSON reports and trace exports against the other's. The
# simulation is deterministic, so any difference is a behaviour change.
#
# Wall-clock outputs are skipped, as in check_bench_trend.sh: the JSON
# files its WALL_CLOCK set lists (and the stdout of the benches that
# write them), tables whose name contains "wallclock", and stdout blocks
# whose heading mentions "wall clock" (up to the next blank line).
#
# Usage: scripts/compare_sim_outputs.sh PARENT_BUILD CHANGE_BUILD
# Exits 0 when every compared output matches, 1 on any difference or on
# a bench that fails to run.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
for build in "$1" "$2"; do
  if [ ! -d "$build/bench" ]; then
    echo "compare_sim_outputs: no bench dir at $build/bench (build first)" >&2
    exit 2
  fi
done
parent=$(CDPATH= cd -- "$1" && pwd)
change=$(CDPATH= cd -- "$2" && pwd)

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

failures=0
# Runs every bench of build tree $1 inside directory $2, so both trees
# write the same relative paths into their outputs.
run_tree() {
  mkdir -p "$2"
  for b in "$1"/bench/*; do
    [ -x "$b" ] || continue
    name=$(basename "$b")
    if ! (cd "$2" && "$b" --quick --json >"$name.stdout" 2>/dev/null); then
      echo "FAIL: $1: $name exited nonzero"
      failures=$((failures + 1))
    fi
  done
  if ! (cd "$2" && "$1/bench/bench_chaos" --quick --trace=chaos_trace \
          >chaos_trace.stdout 2>/dev/null); then
    echo "FAIL: $1: bench_chaos --trace exited nonzero"
    failures=$((failures + 1))
  fi
}

run_tree "$parent" "$out_dir/parent"
run_tree "$change" "$out_dir/change"

python3 - "$repo_root/scripts/check_bench_trend.sh" "$out_dir/parent" \
    "$out_dir/change" <<'EOF' || failures=$((failures + 1))
import json, os, re, sys

trend_script, parent_dir, change_dir = sys.argv[1:4]
with open(trend_script) as fh:
    match = re.search(r"WALL_CLOCK = \{([^}]*)\}", fh.read())
if match is None:
    sys.exit("no WALL_CLOCK set in " + trend_script)
wall_clock = set(re.findall(r'"([^"]+)"', match.group(1)))
# BENCH_realnet.json comes from bench_realnet, and so on.
wall_clock_stdout = {"bench_" + f[len("BENCH_"):-len(".json")] + ".stdout"
                     for f in wall_clock}

def load(path):
    name = os.path.basename(path)
    if name.endswith(".json") and name.startswith("BENCH_"):
        with open(path) as fh:
            doc = json.load(fh)
        tables = doc.get("tables", {})
        for table in [t for t in tables if "wallclock" in t.lower()]:
            del tables[table]
        return json.dumps(doc, indent=1, sort_keys=True).splitlines()
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8", "replace")
    if not name.endswith(".stdout"):
        return text.splitlines()
    kept, masking = [], False
    for line in text.splitlines():
        if "wall clock" in line.lower():
            masking = True
            kept.append("<wall-clock block skipped>")
        elif masking and not line.strip():
            masking = False
        if not masking:
            kept.append(line)
    return kept

names = sorted(set(os.listdir(parent_dir)) | set(os.listdir(change_dir)))
ok, compared = True, 0
for name in names:
    if name in wall_clock or name in wall_clock_stdout:
        continue
    paths = [os.path.join(d, name) for d in (parent_dir, change_dir)]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"DIFF: {name}: only in one tree (missing {missing[0]})")
        ok = False
        continue
    before, after = load(paths[0]), load(paths[1])
    compared += 1
    if before == after:
        continue
    ok = False
    first = next((i for i, (a, b) in enumerate(zip(before, after)) if a != b),
                 min(len(before), len(after)))
    print(f"DIFF: {name}: first difference at line {first + 1}")
    print(f"  parent: {before[first] if first < len(before) else '<end>'}")
    print(f"  change: {after[first] if first < len(after) else '<end>'}")
print(f"compare_sim_outputs: {compared} output(s) compared, "
      f"{'all identical' if ok else 'differences found'}")
sys.exit(0 if ok else 1)
EOF

if [ "$failures" -ne 0 ]; then
  echo "compare_sim_outputs: FAILED"
  exit 1
fi
echo "compare_sim_outputs: OK"
