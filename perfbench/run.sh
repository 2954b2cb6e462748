#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it.  Every
# argument is passed through, e.g.
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 15 --trace 0
# Build output goes to stderr so the last line of stdout stays the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --build-dir .bench_build -j 2 ./perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
