#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root, passing the benchmark's flags through:
#
#   bash bench/run.sh --workload sim-long --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and trace files.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
	GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$out/config"
go build -C bench -o "$out/sparcsbench" .
exec "$out/sparcsbench" "$@"
