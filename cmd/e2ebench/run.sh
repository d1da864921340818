#!/usr/bin/env bash
# Builds cmd/e2ebench from source and runs it with the given arguments, e.g.
#
#   bash cmd/e2ebench/run.sh --workload dense-warm --seed 1 --seconds 12 --trace 0
#   bash cmd/e2ebench/run.sh -seed 1 -out e2e.json
#
# Everything the Go toolchain writes (build cache, temporary files, telemetry,
# the binary) stays under .bench_build/ at the repository root, and the build
# never reaches the network. The benchmark is its own module that replaces
# the repro module with ../.., so outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go -C "$root/cmd/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
