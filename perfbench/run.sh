#!/bin/sh
# Build the benchmark from the checkout's sources, then run it. Run from
# the root of the repository:
#
#   sh perfbench/run.sh --workload trace-hiload --seed 1 --seconds 30 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of the repository (no dune-project or lib/ here)" >&2
  exit 2
fi
# The shared dune cache lives in the home directory; the benchmark reads
# and writes only inside the checkout.
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
