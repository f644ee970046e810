#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload corpus-warm --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files, the binary and the run files stay
# under .bench_build.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; the sources to benchmark are not here" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
