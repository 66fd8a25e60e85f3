#!/usr/bin/env bash
# Builds the mmbench benchmark from the sources of the checkout this
# script sits in, then runs it from the checkout's root with the given
# arguments:
#
#   bash mmbench/run.sh --workload small-jobs --seed 1 --seconds 25 --trace 0
#   bash mmbench/run.sh --workload all --seed 1 --seconds 25
#
# Everything the build and the run write stays inside the checkout:
# the binary, the Go build cache and the journals under .bench_build/,
# the traced runs' spans and Gantt charts under .bench_out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

(
	cd "$root/mmbench"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
		GOFLAGS=-buildvcs=false GOWORK=off \
		go build -o "$build/mmbench" .
)

cd "$root"
exec "$build/mmbench" "$@"
