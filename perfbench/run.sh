#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig8a-cold --seed 1 --seconds 40 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the working directory, and the Go tool gets a home
# directory there too, so nothing is written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
(
	cd perfbench
	HOME="$build/home" GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
		GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOPROXY=off \
		GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
