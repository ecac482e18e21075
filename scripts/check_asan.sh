#!/bin/sh
# Builds the whole tree under AddressSanitizer and runs every test
# binary, as CLAUDE.md prescribes whenever coroutine call paths change
# (GCC 12 coroutine miscompiles surface as double-frees that only ASan
# sees). Exits nonzero if anything fails to build or any test fails.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

cmake -B build-asan -G Ninja -DCMAKE_CXX_FLAGS="-fsanitize=address -g"
cmake --build build-asan

failures=0
for t in build-asan/tests/*_test; do
  if "$t" >/dev/null 2>&1; then
    echo "PASS: $t"
  else
    echo "FAIL: $t"
    failures=$((failures + 1))
  fi
done

# The wire-labeled slice (packet events in shards + Section 4.2 auditor)
# again via ctest, case by case: a shard decode that trips ASan only in one
# parameterized case is pinpointed here instead of vanishing into a
# whole-binary FAIL above.
if ! ctest --test-dir build-asan -L wire --output-on-failure >/dev/null; then
  echo "FAIL: ctest -L wire under ASan"
  failures=$((failures + 1))
fi

# Likewise the chaos_rt slice: the FaultFabric's delayed-copy and
# reorder-hold callbacks run through coroutine frames on both the
# simulated and real executors — exactly the call-path shape the
# CLAUDE.md coroutine rules exist for.
if ! ctest --test-dir build-asan -L chaos_rt --output-on-failure >/dev/null; then
  echo "FAIL: ctest -L chaos_rt under ASan"
  failures=$((failures + 1))
fi

# And the apps slice (replfs end-to-end tests + demo): the replfs
# client/server are coroutine-heavy application code layered over
# generated stubs, ordered broadcast, and the commit protocol — a prime
# habitat for the GCC 12 coroutine hazards.
if ! ctest --test-dir build-asan -L apps --output-on-failure >/dev/null; then
  echo "FAIL: ctest -L apps under ASan"
  failures=$((failures + 1))
fi

# And the obs slice: the latency attributor buffers whole event streams
# per pending call while coroutine protocol code publishes into it — a
# use-after-free anywhere in that handoff shows up here case by case.
if ! ctest --test-dir build-asan -L obs --output-on-failure >/dev/null; then
  echo "FAIL: ctest -L obs under ASan"
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "check_asan: $failures test binary(ies) failed" >&2
  exit 1
fi
echo "check_asan: all test binaries clean under ASan (incl. ctest -L wire/chaos_rt/apps/obs)"
