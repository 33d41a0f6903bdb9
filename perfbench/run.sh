#!/bin/sh
# Build the benchmark runner from the sources of this checkout, then run
# it with the given arguments:
#
#   sh perfbench/run.sh --workload kernels --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout.  The build goes to .bench_build in
# release mode, apart from any development _build, with the shared dune
# cache off so nothing is written outside the checkout.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --profile release --build-dir .bench_build \
  perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
