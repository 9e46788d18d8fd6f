#!/usr/bin/env bash
# Builds the valuation benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run it from the repository
# root:
#
#   bash valbench/run.sh --workload fleet-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own state
# (module cache directory, telemetry counters) stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd valbench && go build -o "$out/valbench" .) >&2
exec "$out/valbench" "$@"
