#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# and runs it with the driver's arguments, keeping the build cache and
# the binary inside the checkout (.bench_build/) so a run reads and
# writes nothing outside it.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/core ]; then
	echo "bench/run.sh: run from the root of a napmon checkout (no go.mod or internal/ here)" >&2
	exit 2
fi
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/napmon-bench ./bench
exec .bench_build/napmon-bench "$@"
