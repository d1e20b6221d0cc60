#!/usr/bin/env bash
# Builds wsdeployd and the benchmark from this checkout, then runs one
# benchmark pass; arguments pass through to the benchmark binary:
#
#   bash perfbench/run.sh --workload greedy-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# daemon data directories, span files) stays under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
# With telemetry on, the go command forks a sidecar that may outlive it;
# turning it off keeps the build from leaving a process behind.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/wsdeployd" ./cmd/wsdeployd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -daemon "$out/wsdeployd" -work "$out/runs" -config BENCHMARK.json "$@"
