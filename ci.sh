#!/bin/sh
# Continuous-integration entry point: build, full test suite (which
# pins the bounded crashmc sweep's report lines), the examples, and
# the figure pin (every figure at tiny scale, the stats bench and
# sec6_8's crash rounds among them, diffed against the committed
# figs/FIGS_tiny.json), via the dune @ci alias (see the root dune
# file).  Any failure fails the run, and so does a run that has not
# finished after 30 minutes (it takes about 25 s): a hung test fails
# instead of running forever.
set -eu
cd "$(dirname "$0")"
exec timeout 1800 dune build @ci "$@"
