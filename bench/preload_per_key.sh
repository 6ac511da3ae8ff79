#!/bin/sh
# Host microseconds per preloaded PACTree key, at 20K, 150K and 1M
# keys, for git revisions of this repository: the before/after figures
# that CHANGES and ROADMAP (baselines, direction 2) quote.
#
#   bench/preload_per_key.sh BASE_REV NEW_REV [RUNS]
#
# Run it from the root of the repository.  Each revision is exported
# with `git archive` into a temporary directory, and this checkout's
# bench/preload.ml and bench/preload_run.ml (the preload that `main.exe
# micro`'s preload-20k row runs) are built there against that
# revision's libraries, release profile, so both revisions run the same
# program.  It runs perfbench's set-up shape: a fresh machine and tree,
# N int keys inserted by 16 simulated threads, the updater running; it
# prints the fastest of a few preloads in one process, each from a
# compacted heap (20K: 10, 150K: 3, 1M: 1).  Every size runs RUNS times
# (default 3) per revision, the revisions alternating, and the script
# prints each revision's fastest and median run.  The simulated end time of
# the preload is printed too: a host-only change leaves it identical.
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 BASE_REV NEW_REV [RUNS]" >&2
  exit 2
fi
base=$1
new=$2
runs=${3:-3}
dune=$(command -v dune || echo "opam exec -- dune")
work=$(mktemp -d "${TMPDIR:-/tmp}/preload_per_key.XXXXXX")
trap 'rm -rf "$work"' EXIT

bench=$(cd "$(dirname "$0")" && pwd)

build() {
  dir="$work/$1"
  mkdir -p "$dir"
  git archive "$2" | tar -x -C "$dir"
  mkdir -p "$dir/preload_probe"
  cp "$bench/preload.ml" "$bench/preload_run.ml" "$dir/preload_probe/"
  printf '(executable\n (name preload_run)\n (libraries des nvm pactree experiments workload unix))\n' \
    > "$dir/preload_probe/dune"
  (cd "$dir" && $dune build --root . --profile release ./preload_probe/preload_run.exe 2>&1) >&2
}

build base "$base"
build new "$new"

for size in 20000 150000 1000000; do
  case $size in 20000) reps=10 ;; 150000) reps=3 ;; *) reps=1 ;; esac
  : > "$work/base.$size"
  : > "$work/new.$size"
  i=0
  while [ $i -lt "$runs" ]; do
    for side in base new; do
      "$work/$side/_build/default/preload_probe/preload_run.exe" $size $reps >> "$work/$side.$size"
    done
    i=$((i + 1))
  done
  for side in base new; do
    rev=$base
    [ $side = new ] && rev=$new
    sort -n "$work/$side.$size" | awk -v rev="$rev" -v size=$size '
      { us[NR] = $1; sim[$2] = 1 }
      END {
        n = 0; for (s in sim) n++
        printf "%-12s %8d keys: fastest %.3f us/key, median %.3f us/key over %d runs (sim end %s)\n",
          rev, size, us[1], us[int((NR + 1) / 2)], NR, (n == 1 ? "the same in every run" : "DIFFERS between runs")
      }'
  done
  if [ "$(cut -d' ' -f2 "$work/base.$size" | sort -u)" != "$(cut -d' ' -f2 "$work/new.$size" | sort -u)" ]; then
    echo "  simulated end time differs between the revisions at $size keys" >&2
  fi
done
