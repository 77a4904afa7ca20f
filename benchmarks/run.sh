#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmarks/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds sbgpbench from source and runs it. Everything the Go toolchain
# writes — build cache, temporary files, the binary — stays inside the
# checkout under .bench_build/, and the benchmark's own files under
# benchmarks/out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off

go -C benchmarks build -o "$build/sbgpbench" ./cmd/sbgpbench
exec "$build/sbgpbench" -out benchmarks/out -golden benchmarks/golden.json "$@"
