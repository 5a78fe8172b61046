#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash bench/run.sh run --workload analyst-d1 --seed 1 --trace 0
#   bash bench/run.sh compare base/ head/
#
# The build cache, the go command's own state, temporary files and the
# binary stay in .bench_build/ under the current directory (run it from
# the checkout's root), so the first run compiles everything and later
# runs reuse it. The build never touches the network.
set -euo pipefail
bench_dir=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$bench_dir" build -o "$out/visclean-bench" .
exec "$out/visclean-bench" "$@"
