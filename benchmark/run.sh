#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build leaves behind — the Go build cache, the binary, the
# cold workload's store directories, the trace dumps — stays inside the
# checkout, under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
(cd "$here" && go build -o "$build/skyquery-benchmark" .)
cd "$root"
exec "$build/skyquery-benchmark" "$@"
