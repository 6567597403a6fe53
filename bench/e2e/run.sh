#!/bin/sh
# The benchmark's entry point, run from the root of a source checkout:
#   sh bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Dune builds the benchmark, and the daemon binary it drives, on first
# use.  The shared dune cache is off, so the build reads and writes only
# inside the checkout.
exec dune exec --root . --cache=disabled --display quiet bench/e2e/main.exe -- "$@"
