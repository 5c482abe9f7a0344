#!/usr/bin/env bash
# Builds the benchmark driver and the ctdvs CLIs from the checkout this
# script sits in, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build in the
# checkout: the Go build cache, the binaries, scratch caches and traces.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -d cmd/dvs-bench || ! -d cmd/dvs-serve || ! -d internal ]]; then
	echo "perfbench: $root is not a ctdvs checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$build/bin/perfbench" .
go build -o "$build/bin/" ./cmd/dvs-bench ./cmd/dvs-serve
exec "$build/bin/perfbench" "$@"
