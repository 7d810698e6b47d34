#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of a checkout. The binary and
# the Go build cache go under .bench_build: a run writes only inside its
# checkout. Where the program the benchmark measures is missing the build
# fails and nothing runs.
set -euo pipefail
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
