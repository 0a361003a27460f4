#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with the
# given flags. Run it from the repository root:
#
#   bash benchmark/run.sh --workload chain-nipc --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every other file the Go toolchain writes
# go under $CARGO_TARGET_DIR (default .bench_build), so the run touches
# nothing outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
