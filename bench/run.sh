#!/usr/bin/env bash
# Builds the subgraphd benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh --workload detect-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# toolchain config) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
# The build needs only the standard library and the repository itself,
# so it never fetches a module.
export GOPROXY=off

go -C bench build -o "$out/subgraph-bench" .
exec "$out/subgraph-bench" "$@"
