#!/usr/bin/env bash
# Builds arraytrack-server and the benchmark from source, then runs the
# benchmark with this script's arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload walk --seed 1 --seconds 10 --trace 0
#
# Every build output, the input-pool cache, server logs and traces stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The Go toolchain's caches, temporary files and per-user config
# (telemetry included) all land under $out too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off

go build -o "$out/arraytrack-server" ./cmd/arraytrack-server >&2
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -server "$out/arraytrack-server" -dir "$out" "$@"
