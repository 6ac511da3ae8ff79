#!/bin/sh
# Continuous-integration entry point: build, full test suite, quick
# bench smoke (fig2 + sec6_8), a bounded crashmc sweep, and the
# instrumented stats bench (`pactree_bench stats --quick`, whose
# BENCH_pactree.json output is schema-validated along with the
# committed baseline and must equal it byte for byte), via the dune
# @ci alias (see the root dune file).  Any failure fails the run.
set -eu
cd "$(dirname "$0")"
exec dune build @ci "$@"
