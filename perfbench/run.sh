#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it.
#
#   sh perfbench/run.sh --workload serve-gemv --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs (the binary, the Go
# caches, temporary files) stay under $CARGO_TARGET_DIR, default
# .bench_build, so a run writes nothing outside the checkout. The build
# log goes to stderr; stdout carries the run context and, as its last
# line, the result JSON.
set -eu
root=$(pwd)
case "${CARGO_TARGET_DIR:-.bench_build}" in
/*) build="${CARGO_TARGET_DIR}" ;;
*) build="$root/${CARGO_TARGET_DIR:-.bench_build}" ;;
esac
mkdir -p "$build/tmp"
# Everything the go command writes (build cache, module cache, temporary
# files, its telemetry counters under the config directory) goes under
# $build.
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
export GOCACHE GOMODCACHE GOPATH GOTMPDIR XDG_CONFIG_HOME GOTOOLCHAIN GOFLAGS GOWORK GOPROXY
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
