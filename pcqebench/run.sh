#!/usr/bin/env bash
# Builds the pcqe benchmark from the checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash pcqebench/run.sh --workload report --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and Go's own temporary and
# configuration files stay under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$build/pcqebench" .)
exec "$build/pcqebench" "$@"
