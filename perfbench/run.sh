#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#
#   sh perfbench/run.sh --workload roster|churn|sweep-warm --seed N \
#       --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the JSON result. The dune cache is off so that nothing is
# written outside the checkout.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
