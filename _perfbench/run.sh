#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments (see main.go). Run it from the repository root:
#
#   bash _perfbench/run.sh --workload paper16 --seed 1 --seconds 20 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
# Keep the Go build cache and config writes inside the checkout; never fetch.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd _perfbench && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
