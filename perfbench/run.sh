#!/usr/bin/env bash
# Builds the HEBS benchmark from the checkout's sources and runs it with
# the given arguments, for example:
#
#   bash perfbench/run.sh --workload pan-exact --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Every build artifact (the Go
# build cache, temporary files and the binary) stays under
# $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"

# The go command otherwise writes its cache, temporary files and
# telemetry under the user's home; the module needs nothing from the
# network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -trimpath -o "$out/hebsperf" .)
exec "$out/hebsperf" -out "$out" "$@"
