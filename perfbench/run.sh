#!/usr/bin/env bash
# Builds the benchmark and the dlpserved job server from this checkout's
# sources into .bench_build/perfbench and runs one benchmark pass:
#
#   bash perfbench/run.sh --workload suite-fig10 --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the Go
# tool's own config and telemetry files, and every file a run writes
# stay under .bench_build/perfbench. See perfbench/README.md for the
# workloads and metrics.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/dlpserved)
exec "$out/bin/perfbench" -out "$out" "$@"
