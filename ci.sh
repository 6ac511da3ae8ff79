#!/bin/sh
# Continuous-integration entry point: build, full test suite (which
# pins the bounded crashmc sweep's report lines), the examples, and
# the figure pin (every figure at tiny scale, the stats bench and
# sec6_8's crash rounds among them, diffed against the committed
# figs/FIGS_tiny.json), via the dune @ci alias (see the root dune
# file); then the allocation budgets (test/test_alloc.exe) again,
# built with the release profile that perfbench measures, in a build
# directory of its own (_build_release).  Any failure fails the run,
# and so does a step that has not finished after 30 minutes (the
# whole run takes about a minute from a cold release build): a hung
# test fails instead of running forever.
set -eu
cd "$(dirname "$0")"
timeout 1800 dune build @ci "$@"
timeout 1800 dune build --profile release --build-dir _build_release ./test/test_alloc.exe
exec timeout 1800 ./_build_release/default/test/test_alloc.exe
