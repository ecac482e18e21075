#!/bin/sh
# Runs the real-network (loopback UDP) test binaries repeatedly. Unlike
# the simulator tests these race against a real kernel scheduler and
# real timers, so a single green run proves little; 20 consecutive runs
# catch the flaky timing assumptions (epoll wakeup ordering, ephemeral
# port reuse, retransmit-timer skew) that one run would miss.
#
# Usage: scripts/check_realnet.sh [build-dir] [runs]   (default: build 20)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
runs=${2:-20}

failures=0
for t in "$build_dir"/tests/rt_fabric_test "$build_dir"/tests/rt_loopback_test; do
  if [ ! -x "$t" ]; then
    echo "check_realnet: missing $t (build first)" >&2
    exit 1
  fi
  i=1
  while [ "$i" -le "$runs" ]; do
    if ! "$t" >/dev/null 2>&1; then
      echo "FAIL: $t (run $i/$runs)"
      failures=$((failures + 1))
    fi
    i=$((i + 1))
  done
  echo "PASS: $t ($runs runs)"
done

if [ "$failures" -ne 0 ]; then
  echo "check_realnet: $failures failing run(s)" >&2
  exit 1
fi
echo "check_realnet: rt suite stable over $runs runs"

# --- live observability round ------------------------------------------
# The acceptance scenario for live node observability, as a real
# multi-process run: a 4-process loopback testbed (ringmaster, two
# members, client), every node serving a stats endpoint (stats_port=)
# and streaming a trace shard (trace_dir=). While the testbed runs,
# every node must answer `metrics` and `health` datagrams with
# well-formed replies; after a SIGTERM-driven graceful shutdown, the
# four shards must merge (`circus merge`) into one clock-aligned
# Chrome trace in which a replicated call is one root-thread span tree
# spanning both members.

circus_bin="$build_dir/src/rt/circus"
if [ ! -x "$circus_bin" ]; then
  echo "check_realnet: missing $circus_bin (build first)" >&2
  exit 1
fi

obs_dir=$(mktemp -d)
obs_pids=""
cleanup() {
  # shellcheck disable=SC2086
  [ -n "$obs_pids" ] && kill $obs_pids 2>/dev/null
  rm -rf "$obs_dir"
}
trap cleanup EXIT

cat >"$obs_dir/ringmaster.conf" <<EOF
role = ringmaster
listen = 127.0.0.1:28301
stats_port = 28311
trace_dir = $obs_dir
EOF
for m in 2 3; do
  cat >"$obs_dir/member$m.conf" <<EOF
role = member
listen = 127.0.0.1:2830$m
ringmaster = 127.0.0.1:28301
troupe = echo
interface = echo
stats_port = 2831$m
trace_dir = $obs_dir
EOF
done
cat >"$obs_dir/client.conf" <<EOF
role = client
listen = 127.0.0.1:28304
ringmaster = 127.0.0.1:28301
troupe = echo
calls = 1000000
payload = 64
stats_port = 28314
trace_dir = $obs_dir
EOF

# Members join sequentially (the first AddTroupeMember bootstraps the
# registration); the client then hammers the troupe until stopped.
"$circus_bin" node "$obs_dir/ringmaster.conf" >"$obs_dir/ringmaster.log" 2>&1 &
obs_pids="$!"
sleep 0.3
"$circus_bin" node "$obs_dir/member2.conf" >"$obs_dir/member2.log" 2>&1 &
obs_pids="$obs_pids $!"
sleep 0.3
"$circus_bin" node "$obs_dir/member3.conf" >"$obs_dir/member3.log" 2>&1 &
obs_pids="$obs_pids $!"
sleep 0.5
"$circus_bin" node "$obs_dir/client.conf" >"$obs_dir/client.log" 2>&1 &
obs_pids="$obs_pids $!"
sleep 0.5

obs_failures=0
python3 - <<'EOF' || obs_failures=$((obs_failures + 1))
import socket, sys, time

def ask(port, query, tries=20):
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.settimeout(0.5)
    for _ in range(tries):
        try:
            s.sendto(query.encode(), ("127.0.0.1", port))
            data, _ = s.recvfrom(65536)
            return data.decode("utf-8")
        except socket.timeout:
            time.sleep(0.1)
    print(f"FAIL: no reply from 127.0.0.1:{port} to {query!r}")
    sys.exit(1)

def ask_paged(port, what, pages=100):
    # Reassemble a `chunk <offset> <next|end>` paged reply stream.
    text, off = "", 0
    for _ in range(pages):
        reply = ask(port, f"{what} {off}")
        header, _, body = reply.partition("\n")
        parts = header.split()
        if len(parts) != 3 or parts[0] != "chunk" or parts[1] != str(off):
            print(f"FAIL: {port} bad page header for {what!r}: {header!r}")
            sys.exit(1)
        text += body
        if parts[2] == "end":
            return text
        off = int(parts[2])
    print(f"FAIL: {port} {what!r} did not finish in {pages} pages")
    sys.exit(1)

ok = True
for port, role in [(28311, "ringmaster"), (28312, "member"),
                   (28313, "member"), (28314, "client")]:
    metrics = ask(port, "metrics")
    if len(metrics.encode()) > 1472:  # rt::kMaxQueryReplyBytes
        print(f"FAIL: {port} metrics reply exceeds one datagram")
        ok = False
    saw_type = False
    for line in metrics.splitlines():
        if line.startswith("# TYPE circus_"):
            saw_type = True
        elif line.startswith("#") or not line or line == "...":
            continue  # "..." marks a truncated reply, itself legal
        else:
            parts = line.split()
            if len(parts) != 2 or not parts[0].startswith("circus_"):
                print(f"FAIL: {port} malformed metrics line: {line!r}")
                ok = False
    if not saw_type:
        print(f"FAIL: {port} metrics reply has no circus_ TYPE line")
        ok = False
    health = ask(port, "health")
    lines = health.splitlines()
    if not lines or not lines[0].startswith("ok "):
        print(f"FAIL: {port} health does not lead with ok: {health!r}")
        ok = False
    for needle in (f"role {role}", "incarnation ", "addr 127.0.0.1:",
                   "load "):
        if needle not in health:
            print(f"FAIL: {port} health missing {needle!r}: {health!r}")
            ok = False
    # Every node answers the stage-latency query, bare (one datagram,
    # possibly truncated at a line boundary) and paged (complete).
    latency = ask(port, "latency")
    if not latency.startswith("# TYPE circus_latency_stage_us summary"):
        print(f"FAIL: {port} latency reply malformed: {latency[:80]!r}")
        ok = False
    full = ask_paged(port, "latency")
    for needle in ("circus_latency_end_to_end_us_count",
                   "circus_latency_calls_total"):
        if needle not in full:
            print(f"FAIL: {port} paged latency missing {needle!r}")
            ok = False
    if port == 28314:
        # The client node attributes its own calls: after half a second
        # of hammering the troupe, some must have been finalized.
        calls = [int(line.split()[1]) for line in full.splitlines()
                 if line.startswith("circus_latency_calls_total ")]
        if not calls or calls[0] <= 0:
            print(f"FAIL: client latency attribution saw no calls")
            ok = False
    # Every node serves the USE-method utilization exposition, bare
    # (one datagram) and paged (the full per-resource series).
    util = ask(port, "util")
    if not util.startswith("# TYPE circus_util_busy_pct gauge"):
        print(f"FAIL: {port} util reply malformed: {util[:80]!r}")
        ok = False
    full_util = ask_paged(port, "util")
    for needle in ('circus_util_busy_pct{resource="rt.loop"}',
                   'circus_util_busy_pct{resource="cpu.process"}',
                   'circus_util_queue{resource="net.udp"}',
                   'circus_util_level{resource="obs.shard"}',
                   "circus_util_samples_total"):
        if needle not in full_util:
            print(f"FAIL: {port} paged util missing {needle!r}")
            ok = False
    samples = [int(line.split()[1]) for line in full_util.splitlines()
               if line.startswith("circus_util_samples_total ")]
    if not samples or samples[0] <= 0:
        print(f"FAIL: {port} utilization monitor never sampled")
        ok = False
sys.exit(0 if ok else 1)
EOF

# circus top: one snapshot of the whole live testbed must render a
# per-resource row block for every node and exit 0.
top_rc=0
"$circus_bin" top --once 127.0.0.1:28311 127.0.0.1:28312 127.0.0.1:28313 \
  127.0.0.1:28314 >"$obs_dir/top.log" 2>&1 || top_rc=$?
if [ "$top_rc" -ne 0 ]; then
  echo "FAIL: circus top --once exited $top_rc"
  sed 's/^/  /' "$obs_dir/top.log"
  obs_failures=$((obs_failures + 1))
elif [ "$(grep -c "cpu.process" "$obs_dir/top.log")" -ne 4 ] \
   || ! grep -q "rt.loop" "$obs_dir/top.log"; then
  echo "FAIL: circus top table missing per-node resource rows"
  sed 's/^/  /' "$obs_dir/top.log"
  obs_failures=$((obs_failures + 1))
else
  echo "PASS: circus top --once rendered all 4 nodes"
fi

# Strict CLI flags: every subcommand must reject an unknown flag with
# usage and exit 2 instead of silently treating it as an input path.
for sub in node nemesis merge lat wire top; do
  flag_rc=0
  "$circus_bin" "$sub" --definitely-not-a-flag x >/dev/null 2>&1 || flag_rc=$?
  if [ "$flag_rc" -ne 2 ]; then
    echo "FAIL: circus $sub exited $flag_rc on an unknown flag (want 2)"
    obs_failures=$((obs_failures + 1))
  fi
done

# Graceful shutdown: every node (including the mid-run client) must
# exit 0 after flushing its final metrics snapshot and trace shard.
# shellcheck disable=SC2086
kill -TERM $obs_pids 2>/dev/null
for pid in $obs_pids; do
  rc=0
  wait "$pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: testbed node (pid $pid) exited $rc on SIGTERM"
    obs_failures=$((obs_failures + 1))
  fi
done
obs_pids=""

for node in ringmaster-28301 member-28302 member-28303 client-28304; do
  for suffix in trace.jsonl metrics.prom; do
    if [ ! -s "$obs_dir/$node.$suffix" ]; then
      echo "FAIL: $node did not flush $node.$suffix"
      obs_failures=$((obs_failures + 1))
    fi
  done
done

merge_rc=0
"$circus_bin" merge -o "$obs_dir/merged.trace.json" \
  "$obs_dir/client-28304.trace.jsonl" \
  "$obs_dir/ringmaster-28301.trace.jsonl" \
  "$obs_dir/member-28302.trace.jsonl" \
  "$obs_dir/member-28303.trace.jsonl" \
  >"$obs_dir/merge.log" 2>&1 || merge_rc=$?
if [ "$merge_rc" -ne 0 ]; then
  echo "FAIL: circus merge exited $merge_rc"
  sed 's/^/  /' "$obs_dir/merge.log"
  obs_failures=$((obs_failures + 1))
else
  python3 - "$obs_dir/merged.trace.json" <<'EOF' || obs_failures=$((obs_failures + 1))
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
events = doc.get("traceEvents")
if not isinstance(events, list) or not events:
    print("FAIL: merged trace has no traceEvents")
    sys.exit(1)

# pid -> node name from the process_name metadata the merge wrote.
names = {e["pid"]: e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"}
def pids_for(prefix):
    return {pid for pid, name in names.items() if name.startswith(prefix)}
client_pids = pids_for("client-")
member_pids = pids_for("member-")
if len(client_pids) != 1 or len(member_pids) != 2:
    print(f"FAIL: unexpected process lanes: {sorted(names.values())}")
    sys.exit(1)

# The acceptance property: some replicated call forms one tree — a
# call span on the client lane whose logical thread also ran execute
# spans on BOTH member lanes.
call_threads = {e["args"]["thread"] for e in events
                if e.get("ph") == "X" and e["name"].startswith("call ")
                and e["pid"] in client_pids}
spanning = [t for t in call_threads
            if all(any(e.get("ph") == "X"
                       and e["name"].startswith("exec ")
                       and e["pid"] == m and e["args"]["thread"] == t
                       for e in events) for m in member_pids)]
if not spanning:
    print("FAIL: no client call span spans both troupe members")
    sys.exit(1)
print(f"PASS: merged trace ({len(events)} records, "
      f"{len(spanning)} thread(s) spanning every member)")
EOF
fi

# --- stage latency round ----------------------------------------------
# The offline twin of the live `latency` query: `circus lat` over the
# same four shards must attribute the client's calls (a non-zero call
# count) and render the per-stage table with every stage row.
lat_rc=0
"$circus_bin" lat "$obs_dir"/*.trace.jsonl >"$obs_dir/lat.log" 2>&1 || lat_rc=$?
if [ "$lat_rc" -ne 0 ]; then
  echo "FAIL: circus lat exited $lat_rc"
  sed 's/^/  /' "$obs_dir/lat.log"
  obs_failures=$((obs_failures + 1))
elif ! grep -Eq "^latency attribution: [1-9][0-9]* calls" "$obs_dir/lat.log"; then
  echo "FAIL: circus lat attributed no calls"
  sed 's/^/  /' "$obs_dir/lat.log"
  obs_failures=$((obs_failures + 1))
else
  lat_rows=0
  for stage in stage client_marshal request_flight server_queue \
      server_execute reply_collate end_to_end; do
    grep -Eq "^  $stage " "$obs_dir/lat.log" && lat_rows=$((lat_rows + 1))
  done
  if [ "$lat_rows" -ne 7 ]; then
    echo "FAIL: circus lat stage table incomplete"
    sed 's/^/  /' "$obs_dir/lat.log"
    obs_failures=$((obs_failures + 1))
  else
    echo "PASS: circus lat ($(grep '^latency attribution' "$obs_dir/lat.log"))"
  fi
fi

# --- wire audit round --------------------------------------------------
# Every node's trace shard also holds the datagrams it sent and received
# (packet events). Decoding and auditing all four shards together must
# report zero Section 4.2 violations over a complete capture — no shard
# drops — so the live runtime's wire behaviour is held to the same
# oracle the chaos sweep uses. (No --member flags here: members
# legitimately exchange get_state during sequential joins.) The audit
# also annotates the merged timeline with per-span wire cost.
wire_rc=0
"$circus_bin" wire --annotate "$obs_dir/merged.trace.json" \
  -o "$obs_dir/wire.trace.json" --no-conversations \
  "$obs_dir"/*.trace.jsonl >"$obs_dir/wire.log" 2>&1 || wire_rc=$?
if [ "$wire_rc" -ne 0 ]; then
  echo "FAIL: circus wire exited $wire_rc (violations or bad shards)"
  sed 's/^/  /' "$obs_dir/wire.log"
  obs_failures=$((obs_failures + 1))
elif ! grep -q "wire audit: 0 violation" "$obs_dir/wire.log"; then
  echo "FAIL: circus wire did not report a clean audit"
  sed 's/^/  /' "$obs_dir/wire.log"
  obs_failures=$((obs_failures + 1))
elif grep -q "incomplete" "$obs_dir/wire.log" ||
     grep -Eq "dropped=[1-9]" "$obs_dir/merge.log"; then
  echo "FAIL: a shard dropped events; the wire audit is incomplete"
  sed 's/^/  /' "$obs_dir/wire.log" "$obs_dir/merge.log"
  obs_failures=$((obs_failures + 1))
elif ! grep -Eq "records=[1-9]" "$obs_dir/wire.log"; then
  echo "FAIL: the shards carried no packet events to audit"
  sed 's/^/  /' "$obs_dir/wire.log"
  obs_failures=$((obs_failures + 1))
elif [ ! -s "$obs_dir/wire.trace.json" ]; then
  echo "FAIL: circus wire produced no annotated timeline"
  obs_failures=$((obs_failures + 1))
else
  echo "PASS: wire audit clean and complete over $(ls "$obs_dir"/*.trace.jsonl | wc -l) trace shards"
fi

if [ "$obs_failures" -ne 0 ]; then
  echo "check_realnet: observability round: $obs_failures failure(s)" >&2
  for log in "$obs_dir"/*.log; do
    echo "--- $log"
    tail -5 "$log"
  done
  exit 1
fi
echo "check_realnet: observability round ok (metrics/health/latency/util on 4 nodes, circus top snapshot, shards merged, stage latency attributed, wire audit clean)"

# --- latency-bench round -----------------------------------------------
# The open-loop load harness against the real runtime: bench_throughput
# --quick runs the loopback rt variant at a modest fixed rate alongside
# the deterministic sim sweep. The exported BENCH_throughput.json must
# carry completed calls and the full load-column schema in both the
# rt_wallclock and sim_load tables (same columns check_bench.sh gates).
lat_bench="$build_dir/bench/bench_throughput"
if [ ! -x "$lat_bench" ]; then
  echo "check_realnet: missing $lat_bench (build first)" >&2
  exit 1
fi
# Absolute path: the bench runs from a temp cwd so its JSON lands there.
lat_bench=$(CDPATH= cd -- "$(dirname -- "$lat_bench")" && pwd)/bench_throughput
lat_dir=$(mktemp -d)
lat_rc=0
(cd "$lat_dir" && "$lat_bench" --quick --json) \
  >"$lat_dir/bench.log" 2>&1 || lat_rc=$?
if [ "$lat_rc" -ne 0 ]; then
  echo "FAIL: bench_throughput exited $lat_rc"
  tail -15 "$lat_dir/bench.log" | sed 's/^/  /'
  rm -rf "$lat_dir"
  exit 1
fi
lat_json_rc=0
python3 - "$lat_dir/BENCH_throughput.json" <<'EOF' || lat_json_rc=$?
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
tables = doc.get("tables", {})
load_cols = ["members", "offered_per_sec", "achieved_per_sec",
             "completed", "shed", "p50_ms", "p99_ms", "max_ms",
             "retransmits"]
ok = True
for tname in ("sim_load", "rt_wallclock"):
    rows = tables.get(tname)
    if not isinstance(rows, list) or not rows:
        print(f"FAIL: BENCH_throughput {tname} table missing or empty")
        ok = False
        continue
    for i, row in enumerate(rows):
        missing = [k for k in load_cols if k not in row]
        if missing:
            print(f"FAIL: {tname} row {i} missing: {missing}")
            ok = False
    if not any(row.get("completed", 0) > 0 for row in rows):
        print(f"FAIL: {tname} completed no calls at any rate")
        ok = False
rt = tables.get("rt_wallclock") or []
done = sum(row.get("completed", 0) for row in rt)
if ok:
    print(f"PASS: bench_throughput ({done} rt calls completed, "
          f"{len(tables.get('sim_load', []))} sim_load row(s))")
sys.exit(0 if ok else 1)
EOF
rm -rf "$lat_dir"
if [ "$lat_json_rc" -ne 0 ]; then
  echo "check_realnet: latency-bench round failed" >&2
  exit 1
fi

# --- bind-conflict round -----------------------------------------------
# An auxiliary-port collision (stats_port / faults_port already taken)
# must be a one-line fatal error with a nonzero exit, not a node that
# limps along unobservable: operators point dashboards and the nemesis
# at these ports, so a silently unbound endpoint would fail them late
# and mysteriously.
conflict_dir=$(mktemp -d)
cat >"$conflict_dir/conflicted.conf" <<EOF
role = ringmaster
listen = 127.0.0.1:28390
stats_port = 28391
EOF
# Hold the port from a helper that lives until we kill it.
python3 -c '
import socket, sys, time
s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
s.bind(("127.0.0.1", 28391))
time.sleep(30)
' &
squatter_pid=$!
sleep 0.3
conflict_rc=0
"$circus_bin" node "$conflict_dir/conflicted.conf" \
  >"$conflict_dir/node.log" 2>&1 || conflict_rc=$?
kill "$squatter_pid" 2>/dev/null || true
wait "$squatter_pid" 2>/dev/null || true
if [ "$conflict_rc" -eq 0 ]; then
  echo "FAIL: circus node exited 0 despite a stats_port bind conflict"
  rm -rf "$conflict_dir"
  exit 1
fi
if [ "$(wc -l <"$conflict_dir/node.log")" -gt 2 ] \
   || ! grep -qi "stats" "$conflict_dir/node.log"; then
  echo "FAIL: bind conflict did not produce a one-line stats error:"
  sed 's/^/  /' "$conflict_dir/node.log"
  rm -rf "$conflict_dir"
  exit 1
fi
echo "PASS: stats_port bind conflict fails fast ($(head -1 "$conflict_dir/node.log"))"
rm -rf "$conflict_dir"

# --- chaos round -------------------------------------------------------
# Seeded fault schedules against the live testbed: SIGKILL/restart,
# partitions, loss bursts, latency spikes — every run wire-audited and
# checked for post-heal convergence. Produces BENCH_chaos_rt.json.
"$repo_root/scripts/check_chaos_rt.sh" "$build_dir"

# --- replfs round ------------------------------------------------------
# The same nemesis, but the troupe runs the replfs application (stub-
# generated marshaling, ordered-broadcast write staging, troupe commit)
# and the oracle is read-your-writes: after healing, a fresh client
# commits a known block and reads it back with unanimous collation.
# Seed 1's schedule orders 1 SIGKILL/restart and 1 partition, so the
# run covers a member rebuilt from state transfer mid-traffic. The run
# is wire-audited like every other.
replfs_dir=$(mktemp -d)
replfs_rc=0
"$circus_bin" nemesis --seed 1 --members 3 --horizon_s 20 \
  --actions 5 --base_port 29200 --workload replfs --dir "$replfs_dir" \
  --json "$replfs_dir/nem.json" >"$replfs_dir/nemesis.log" 2>&1 || replfs_rc=$?
if [ "$replfs_rc" -ne 0 ]; then
  echo "FAIL: replfs nemesis round (seed 1)"
  tail -15 "$replfs_dir/nemesis.log" | sed 's/^/  /'
  rm -rf "$replfs_dir"
  exit 1
fi
if ! grep -q '"kills": [1-9]' "$replfs_dir/nem.json" \
   || ! grep -q '"partitions": [1-9]' "$replfs_dir/nem.json"; then
  echo "FAIL: replfs nemesis schedule lost its SIGKILL or partition"
  sed 's/^/  /' "$replfs_dir/nem.json"
  rm -rf "$replfs_dir"
  exit 1
fi
grep '^nemesis: PASS' "$replfs_dir/nemesis.log" | sed 's/^nemesis:/PASS: replfs/'
rm -rf "$replfs_dir"

echo "check_realnet: all rounds ok (stability, observability, latency bench, bind conflicts, chaos, replfs)"
