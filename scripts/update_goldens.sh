#!/usr/bin/env bash
# Regenerates the golden report snapshots in tests/goldens/ and the pinned
# scenario expectations in tests/scenarios/*.ofh and experiments/*.ofh from
# the current tree. A moved experiments/ number must also move in
# EXPERIMENTS.md, which cites them. Run
# this when a pipeline change intentionally shifts a rendered table, then
# review the resulting diff like any other code change — "the goldens moved"
# IS the review surface.
#
# Usage: scripts/update_goldens.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset default
cmake --build --preset default -j "$(nproc)" \
  --target golden_report_test scenario_runner

echo "==> rewriting tests/goldens/*.txt"
OFH_UPDATE_GOLDENS=1 ./build/tests/golden_report_test

echo "==> verifying the rewritten goldens pass"
./build/tests/golden_report_test

# Scenario expectations: stale '#' regexp lines are re-anchored onto the
# drifted report line (via their literal prefix) and replaced with an
# exact-match escape; hand-written structural patterns that still match are
# left untouched. --update runs single-threaded for speed — the 1/2/8
# byte-identity gate reruns in CI.
echo "==> rewriting stale expectations in tests/scenarios/*.ofh and experiments/*.ofh"
./build/tools/scenario/scenario_runner --update --threads=1 \
  tests/scenarios/*.ofh experiments/*.ofh

echo "==> verifying the corpus and the experiments pass"
./build/tools/scenario/scenario_runner --threads=1 tests/scenarios/*.ofh \
  experiments/*.ofh

git --no-pager diff --stat -- tests/goldens tests/scenarios experiments || true
echo "==> done; review the diff above before committing"
