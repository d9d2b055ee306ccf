#!/bin/sh
# Build the ledger from source, then run it with the given arguments.
# Run from the root of a checkout:
#   sh bench/ledger/run.sh --workload qcol-scan --seed 1 --seconds 15 --trace 0
# Build output goes to stderr, so the ledger's own output is all of stdout.
set -e
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . --display quiet bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
