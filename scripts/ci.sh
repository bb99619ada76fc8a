#!/usr/bin/env bash
# CI entry point: builds and tests the three configurations that gate every
# change, all with -Werror.
#
#   1. ci            — RelWithDebInfo, the tier-1 verify configuration
#   2. ci-asan-ubsan — Debug + AddressSanitizer + UndefinedBehaviorSanitizer;
#                      the adversarial decode harness runs here, so any OOB
#                      read or UB in a codec fails the job
#   3. ci-tsan       — Debug + ThreadSanitizer; runs only the thread-labelled
#                      tests (the ones that spawn ThreadPool workers), so any
#                      data race in the parallel sweep layer fails the job
#
# Usage: scripts/ci.sh [--fast]
#   --fast  run only the codec-labelled tests in the sanitizer pass
#           (the quick pre-push loop; full CI runs everything)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

echo "==> [1/3] RelWithDebInfo + -Werror"
cmake --preset ci
cmake --build --preset ci -j "$(nproc)"
ctest --test-dir build-ci --output-on-failure -j "$(nproc)" \
  -LE 'scenario|experiment'

# The study benchmark harness's own tests (quartiles, spread, the digest and
# exact-count checker): pure Python, no build needed.
echo "==> study benchmark harness tests"
python3 -m unittest discover -s studybench -p 'test_*.py'

# Scenario corpus (tests/scenarios/*.ofh): each file runs the full study at
# scan_threads 1/2/8 and must emit byte-identical reports before its regexp
# expectations are checked. Serial on purpose: the sweep inside each case is
# the parallelism, and interleaved output would bury a first-diff line.
echo "==> scenario corpus (serial, threads 1/2/8 byte-identity)"
ctest --test-dir build-ci --output-on-failure -L scenario

# The paper's experiments (experiments/*.ofh): every table and figure at
# EXPERIMENTS.md's scales, each number that document cites pinned by an
# expectation. Serial for the same reason as the corpus.
echo "==> paper experiments (serial, threads 1/2/8 byte-identity)"
ctest --test-dir build-ci --output-on-failure -L experiment

# Determinism lint: the static half of the byte-identical-replay contract.
# Required — an unsuppressed nondeterminism source, unordered-iteration in an
# export path, or a justification-free suppression fails CI here.
echo "==> determinism lint (ofh-lint)"
scripts/lint.sh --build-dir build-ci

# Scale trajectory: the full pipeline at 1/512 and 1/64, plus the scan
# phase on forked worker fleets of 1/2/4 digest-checked against the
# in-process baseline. Non-gating on throughput (numbers drift with CI
# hardware) — but a conservation-identity violation or a fleet/baseline
# digest divergence makes perf_scale exit nonzero, and that DOES fail the
# job: the flow-level fast paths must never lose a packet, and the
# distributed merge must never reorder a byte.
echo "==> scale trajectory (perf_scale, conservation+identity gated)"
./build-ci/bench/perf_scale --scales=512,64 --workers=1,2,4 \
  --workers-scale=512 --out=build-ci/BENCH_scale.json

# The exported Chrome trace must actually load: parse it with the stock
# json module, then check the trace-event-format invariants, then make sure
# the chain report reconstructed the paper's escalation pattern.
echo "==> trace export validation"
./build-ci/examples/trace_export build-ci/trace.json build-ci/chains.txt
python3 -m json.tool build-ci/trace.json > /dev/null
python3 scripts/check_trace.py build-ci/trace.json
grep -q "scan -> brute-force -> injection escalations:" build-ci/chains.txt

# Live introspection end-to-end: a small study serves the status endpoint
# while ofh-top polls it and check_status_proto.py (an independent Python
# implementation of the framing) runs the protocol conformance suite —
# hostile frames included — then shuts the example down via the stop
# request. The client drive is gating: a wedged server, a malformed status
# payload or a mis-framed response fails CI here.
echo "==> live status endpoint (live_study + ofh-top + protocol checks)"
OFH_STATUS_SOCK="build-ci/ofh-status.sock"
./build-ci/examples/live_study --unix "$OFH_STATUS_SOCK" --scale 16384 \
  --attack-scale 512 --days 1 --threads 2 --serve \
  > build-ci/live_study.log 2>&1 &
LIVE_STUDY_PID=$!
python3 scripts/check_status_proto.py --unix "$OFH_STATUS_SOCK" \
  --wait-ready 30
./build-ci/tools/ofh-top/ofh-top --unix "$OFH_STATUS_SOCK" --once --raw \
  > build-ci/ofh-top.raw
grep -q '^phase=' build-ci/ofh-top.raw
grep -q '^events_published=' build-ci/ofh-top.raw
python3 scripts/check_status_proto.py --unix "$OFH_STATUS_SOCK" --stop
wait "$LIVE_STUDY_PID"

# Distributed execution end-to-end (DESIGN.md §15): a coordinator driving
# three external ofh-worker processes over a unix socket, with the crash
# drill SIGKILLing one of them mid-job. The reports must diff byte-for-byte
# against the --workers 0 in-process serial reference, and the retry ledger
# must show the killed attempt was detected and requeued. Gating: a torn
# merge, a lost shard, or a drill that didn't fire all fail here.
echo "==> distributed fleet (ofh-coordinator + 3 ofh-worker, SIGKILL drill)"
./build-ci/tools/dist/ofh-coordinator --workers 0 \
  --out build-ci/dist-serial.txt
OFH_DIST_SOCK="build-ci/ofh-dist.sock"
for i in 1 2 3; do
  ./build-ci/tools/dist/ofh-worker --connect "$OFH_DIST_SOCK" \
    --name "ci-w$i" --connect-wait-ms 30000 &
done
./build-ci/tools/dist/ofh-coordinator --listen "$OFH_DIST_SOCK" \
  --workers 3 --fork 0 --wait 3 --kill-one \
  --out build-ci/dist-fleet.txt 2> build-ci/dist-fleet.log
wait || true  # one worker died by SIGKILL (by design); the rest exited 0
diff build-ci/dist-serial.txt build-ci/dist-fleet.txt
grep -q "requeued (worker-eof)" build-ci/dist-fleet.log

echo "==> [2/3] ASan+UBSan + -Werror"
cmake --preset ci-asan-ubsan
cmake --build --preset ci-asan-ubsan -j "$(nproc)"
# halt_on_error makes the first sanitizer report fail the test instead of
# being a log line someone has to notice.
export ASAN_OPTIONS="halt_on_error=1:strict_string_checks=1:detect_stack_use_after_return=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
if [[ "$FAST" == "1" ]]; then
  ctest --test-dir build-ci-asan -L codec --output-on-failure -j "$(nproc)"
else
  # The experiments add no code path the corpus does not cover, so they
  # stay out of the sanitizer passes.
  ctest --test-dir build-ci-asan --output-on-failure -j "$(nproc)" \
    -LE 'scenario|experiment'

  # Chaos gate, corpus edition: the three chaos configurations live in
  # tests/scenarios/ as regexp-pinned scenarios (baseline_clean,
  # flaky_network, chaos_degraded) and run here with the sanitizers
  # watching — conservation, accounting and fault budgets included, since
  # their expectations pin those exact report lines.
  echo "==> scenario corpus (ASan+UBSan, serial)"
  ctest --test-dir build-ci-asan --output-on-failure -L scenario

  # Parser fuzz: 500 seeded corpus mutations through parse + (every 25th
  # parsed mutant) the full pipeline. Hostile input must die as a typed
  # ScenarioError; any UB or OOB dies loudly here instead of in a user's
  # hand-edited scenario file.
  echo "==> scenario_fuzz (ASan+UBSan, 500 iterations, fixed seed)"
  ./build-ci-asan/tools/scenario/scenario_fuzz --seed=1 --iterations=500 \
    tests/scenarios/*.ofh
fi

echo "==> [3/3] TSan + -Werror (thread-labelled tests)"
cmake --preset ci-tsan
cmake --build --preset ci-tsan -j "$(nproc)"
# second_deadlock_stack gives both lock orders when TSan reports a
# lock-order inversion, not just the acquiring side.
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir build-ci-tsan -L thread --output-on-failure -j "$(nproc)"

# The live endpoint again, this time with TSan watching the whole stack:
# 8 scan shards publishing progress, the server thread snapshotting, and
# two external clients (ofh-top + the conformance script) polling.
echo "==> live status endpoint under TSan"
OFH_TSAN_SOCK="build-ci-tsan/ofh-status.sock"
./build-ci-tsan/examples/live_study --unix "$OFH_TSAN_SOCK" --scale 16384 \
  --attack-scale 512 --days 1 --threads 8 --serve \
  > build-ci-tsan/live_study.log 2>&1 &
LIVE_TSAN_PID=$!
python3 scripts/check_status_proto.py --unix "$OFH_TSAN_SOCK" \
  --wait-ready 60
./build-ci-tsan/tools/ofh-top/ofh-top --unix "$OFH_TSAN_SOCK" --once --raw \
  | grep -q '^phase='
python3 scripts/check_status_proto.py --unix "$OFH_TSAN_SOCK" --stop
wait "$LIVE_TSAN_PID"

# The coordinator's poll loop under TSan, with exec'd (never forked)
# workers: fork and the TSan runtime don't mix, so the fleet here is three
# separate ofh-worker processes — each itself a TSan-instrumented study
# shard — and the coordinator listens instead of forking. The merged
# reports must still diff clean against the in-process serial reference.
echo "==> distributed coordinator under TSan (exec'd workers, 1 day)"
OFH_TSAN_DIST_SOCK="build-ci-tsan/ofh-dist.sock"
for i in 1 2 3; do
  ./build-ci-tsan/tools/dist/ofh-worker --connect "$OFH_TSAN_DIST_SOCK" \
    --name "tsan-w$i" --connect-wait-ms 120000 &
done
./build-ci-tsan/tools/dist/ofh-coordinator --listen "$OFH_TSAN_DIST_SOCK" \
  --workers 3 --fork 0 --wait 3 --days 1 \
  --out build-ci-tsan/dist-fleet.txt
wait || true
./build-ci-tsan/tools/dist/ofh-coordinator --workers 0 --days 1 \
  --out build-ci-tsan/dist-serial.txt
diff build-ci-tsan/dist-serial.txt build-ci-tsan/dist-fleet.txt

echo "==> CI green"
