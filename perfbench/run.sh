#!/usr/bin/env bash
# Build the serve daemon and the benchmark from source, then run one
# workload: bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# (or: bash perfbench/run.sh compare RUN_A.json RUN_B.json).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a checkout of the repository (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
dune build --root . ./bin/main.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
