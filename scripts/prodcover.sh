#!/usr/bin/env bash
# Report-only production coverage: builds every entry point with coverage
# instrumentation, runs the production set once (the full molecule-bench
# report, every scenario, the eight examples, molecule-load with cfork on
# and off, the benchmark at --seconds 0 --trace 0, and the scripted moleculed
# session of scripts/moleculed-session.sh), then prints each function under
# internal/ that no production run reached (0.0%).
# Run it from the repository root: `make prodcover`. It gates nothing.
set -euo pipefail

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/bin"
export GOCOVERDIR="$tmp/cov"
mkdir -p "$bin" "$GOCOVERDIR"

examples=(quickstart fpgapipeline alexachain density cluster mapreduce trace newpu)

# Plain -cover instruments the whole main module (go1.24 wrote no counter
# files under -coverpkg=repro/internal/...).
go build -cover -o "$bin/molecule-bench" ./cmd/molecule-bench
go build -cover -o "$bin/molecule-load" ./cmd/molecule-load
go build -cover -o "$bin/moleculed" ./cmd/moleculed
for ex in "${examples[@]}"; do
	go build -cover -o "$bin/ex-$ex" "./examples/$ex"
done
# benchmark/ is its own module: name the main module's packages explicitly.
GOFLAGS= GOPROXY=off go -C benchmark build -cover -coverpkg=repro/... -o "$bin/benchmark" .

start=$SECONDS
"$bin/molecule-bench" > /dev/null
for sc in $("$bin/molecule-bench" -list | sed -n '/^scenarios/,$p' | awk 'NF > 1 && $1 != "scenarios" {print $1}'); do
	"$bin/molecule-bench" -scenario "$sc" > /dev/null
done
for ex in "${examples[@]}"; do
	"$bin/ex-$ex" > /dev/null
done
"$bin/molecule-load" -cfork=true > /dev/null
"$bin/molecule-load" -cfork=false -duration 2s > /dev/null
"$bin/benchmark" --seconds 0 --trace 0 > /dev/null
bash scripts/moleculed-session.sh "$bin/moleculed" > /dev/null
echo "prodcover: production runs took $((SECONDS - start)) s" >&2

go tool covdata func -i="$GOCOVERDIR" | awk '$1 ~ /^repro\/internal\// && $NF == "0.0%"'
