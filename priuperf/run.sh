#!/usr/bin/env bash
# Builds priuserve and the benchmark from the checkout in the current
# directory, then runs one benchmark pass. All build and run state stays under
# .bench_build/ in the checkout.
#
#   bash priuperf/run.sh --workload hot-deletes --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" TMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOFLAGS="" GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOENV=off

go build -o "$out/priuserve" ./cmd/priuserve >&2
(cd priuperf && go build -o "$out/priuperf" .) >&2
exec "$out/priuperf" --server "$out/priuserve" --workdir "$out" "$@"
