#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. The build cache, the binary and
# every file a run writes stay under .bench_build in that checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$out/e2ebench" . && go build -o "$out/stationd" sbr/cmd/stationd)
exec "$out/e2ebench" -root "$root" -stationd "$out/stationd" "$@"
