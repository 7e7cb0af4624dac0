#!/usr/bin/env bash
# Builds the OD-recovery benchmark from the checkout it is run in and runs it
# with the given arguments. Run it from the repository root:
#
#   bash odbench/run.sh --workload grid3-recover --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/ in
# the current directory. The build fails, and nothing is run, when the
# repository's own sources are not beside the benchmark.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # go env and telemetry files
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$bench" && go build -o "$out/odbench" .) >&2
exec "$out/odbench" "$@"
