#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload infer_scene --seed 1 --seconds 25 --trace 0
#
# The Go build cache, GOPATH, the go command's configuration (and so its
# telemetry counters), temporary files and the binary stay under .bench_build
# in that root: outside the checkout the benchmark writes nothing and reads
# only the Go toolchain.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
