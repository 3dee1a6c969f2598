#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given flags, e.g.
#
#   bash bench/run.sh -workload kernels -seed 1 -seconds 20 -trace 0
#
# Every file the Go toolchain writes (build cache, temp files, telemetry)
# stays under .bench_build/, and nothing is downloaded: the module has no
# dependencies outside this repository.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/bench" && go build -buildvcs=false -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
