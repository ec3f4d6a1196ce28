#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload netd-read --seed 1 --seconds 12 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build
# in the current directory. The build needs the repository's module one
# directory up, so a copy holding only the benchmark fails here, before
# anything is measured.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
