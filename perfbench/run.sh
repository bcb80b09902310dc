#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the ingest workload's data directory all
# live under .bench_build in the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (the program sources are missing)" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOENV=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
