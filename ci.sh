#!/bin/sh
# Continuous-integration entry point: build, full test suite (which
# pins the bounded crashmc sweep's report lines), the examples, and
# the figure pin (every figure at tiny scale, the stats bench and
# sec6_8's crash rounds among them, diffed against the committed
# figs/FIGS_tiny.json), via the dune @ci alias (see the root dune
# file); then the allocation budgets (test/test_alloc.exe) again,
# built with the release profile that perfbench measures, in a build
# directory of its own (_build_release); then a smoke run of the
# benchmark program (perfbench/bench.exe, built there too): each
# workload for one host second, whose result line must say the run was
# correct with no failed operation.  Any failure fails the run, and so
# does a step that has not finished after 30 minutes (the whole run
# takes about a minute and a half from a cold release build): a hung
# test fails instead of running forever.
set -eu
cd "$(dirname "$0")"
timeout 1800 dune build @ci "$@"
timeout 1800 dune build --profile release --build-dir _build_release ./test/test_alloc.exe \
  ./perfbench/bench.exe
timeout 1800 ./_build_release/default/test/test_alloc.exe
for workload in ycsb_a ycsb_c service; do
  result=$(timeout 600 ./_build_release/default/perfbench/bench.exe --workload "$workload" \
    --seed 1 --seconds 1 --trace 0 | tail -n 1)
  case $result in
  *'"correct": true'*'"failed": 0,'*) echo "perfbench $workload: correct, 0 failed" ;;
  *)
    echo "perfbench $workload: bad result line: $result" >&2
    exit 1
    ;;
  esac
done
