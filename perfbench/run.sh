#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper16-policies --seed 1 --seconds 40 --trace 0
#
# Every build product, the Go build cache, temporary files and the Go
# command's own configuration and telemetry stay under .bench_build/ in the
# checkout. A checkout without the simulator sources fails the build, so
# the script exits non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -tmp "$out/tmp" "$@"
