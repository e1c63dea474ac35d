#!/usr/bin/env bash
# Build the benchmark and the mclh daemon from source, then run one
# workload:
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
# Run from the repository root. The last stdout line is the JSON result;
# build output goes to stderr.
set -euo pipefail

# the shared dune cache lives outside the checkout, so it stays off
dune build --root . --display quiet --cache disabled \
  ./perfbench/bench.exe ./bin/mclh_cli.exe 1>&2

# the load is sized for the machine: every parallel layer gets one
# domain per available core, and run metrics stay off
MCLH_DOMAINS="$(nproc)"
export MCLH_DOMAINS
unset MCLH_METRICS

exec ./_build/default/perfbench/bench.exe "$@"
