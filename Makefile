# Convenience targets for the Molecule reproduction.

GO ?= go

.PHONY: all check build vet lint lint-fixtures test race bench-test fuzz-smoke chaos bench microbench bench-smoke benchjson coldstart-race cluster-race report report-md golden trace-demo attrib-demo examples outputs

all: check

# The full CI gate: the harness is concurrent, so -race is required, not
# optional; lint machine-checks the determinism/layering/zero-alloc
# invariants the compiler cannot see.
check: build vet lint test race bench-test

build:
	$(GO) build ./...

# vet also fails on any Go file outside vendor/ that gofmt would change.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './vendor/*' -not -path './.*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l (run gofmt -w on these):"; echo "$$unformatted"; exit 1; fi

# moleculelint: the repo's own go/analysis suite (internal/lint) — eight
# invariant analyzers plus stock copylocks and a nilness subset — run over
# every package. Add -json for the stable machine-readable report:
#   go run ./cmd/moleculelint -json ./...
lint:
	$(GO) run ./cmd/moleculelint ./...

# Only the analyzer fixture suites (linttest goldens + the -json schema
# golden): fast local iteration while writing or tuning an analyzer,
# without re-vetting the whole tree.
lint-fixtures:
	$(GO) test ./internal/lint/ ./cmd/moleculelint/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark's own tests; benchmark/ is a separate module, so `test`
# skips them. Every workload runs at 1/100 scale with its invariants
# checked, and its fingerprint must match across three repeat runs.
bench-test:
	$(GO) -C benchmark test ./...

# Ten seconds of the mem differential fuzz target: random Map/Fork/Write/
# Unmap/Release sequences against the run-length extents and the per-page
# reference model. Its committed corpus (internal/mem/testdata/fuzz) also
# runs as plain tests under `test`.
fuzz-smoke:
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzAddressSpace -fuzztime 10s

# Seeded fault-injection soak: kill/revive PUs under load, assert no
# invocation is lost or double-billed, and that runs replay from their seed.
# Race-enabled because the recovery path spawns background attempt procs.
chaos:
	$(GO) test -race -run 'TestChaosSoak|TestRetry|TestFailover|TestTimeout' -v ./internal/molecule
	$(GO) run ./cmd/molecule-bench -scenario chaos

bench:
	$(GO) test -bench=. -benchmem ./...

# Fast-path microbenchmarks: the sim kernel (including one sharded round,
# swept over its size), the nIPC FIFO write path
# (ns/op and allocs/op), the address-space fork fan-out and one cold start's
# fork/map/write/release cycle, a warm Molecule invocation end to end, a forced
# cold start under the zygote forest whose release evicts a warm instance, a
# warm cross-PU chain (wiring built and released every call), a warm
# invocation and chain through a one-machine cluster Boss, and the loadgen
# open-loop stream's own cost (allocs/req), and the sharded-kernel soak's
# throughput (events/s) at 1, 2 and 4 shards.
microbench:
	$(GO) test ./internal/sim -bench 'Kernel|ChanPingPong|ShardedRound' -benchmem -run xxx
	$(GO) test ./internal/mem -bench 'ForkFanout|ColdCycle' -benchmem -run xxx
	$(GO) test ./internal/xpu -bench 'FIFOWrite' -benchmem -run xxx
	$(GO) test ./internal/molecule -bench 'InvokeWarm|InvokeCold|InvokeChainCrossPU' -benchmem -run xxx
	$(GO) test ./internal/cluster -bench 'BossInvoke' -benchmem -run xxx
	$(GO) test ./internal/loadgen -bench 'DriveOpenLoop' -benchmem -run xxx
	$(GO) test ./internal/bench -bench 'ShardSoak' -run xxx

# One iteration of every microbenchmark — a CI smoke test that the bench
# rigs still build and run, without paying for stable numbers.
bench-smoke:
	$(GO) test ./internal/sim -bench 'Kernel|ChanPingPong|ShardedRound' -benchtime 1x -run xxx
	$(GO) test ./internal/mem -bench 'ForkFanout|ColdCycle' -benchtime 1x -run xxx
	$(GO) test ./internal/xpu -bench 'FIFOWrite' -benchtime 1x -run xxx
	$(GO) test ./internal/molecule -bench 'InvokeWarm|InvokeCold|InvokeChainCrossPU' -benchtime 1x -run xxx
	$(GO) test ./internal/cluster -bench 'BossInvoke' -benchtime 1x -run xxx
	$(GO) test ./internal/loadgen -bench 'DriveOpenLoop' -benchtime 1x -run xxx
	$(GO) test ./internal/bench -bench 'ShardSoak' -benchtime 1x -run xxx

# Regenerate every BENCH_*.json snapshot, each in the one envelope
# (scenario, result): the batched-nIPC sweep, the sharded-kernel soak, the
# cluster scaling curve and the cold-start comparison. Every soak point
# must fingerprint-match shards=1, and each cold-start arm must match
# between the classic kernel and the windowed driver, before it is written.
# The files hold no wall-clock figure, so they come out the same bytes on
# any host: after a run, `git diff -- 'BENCH_*.json'` is empty unless the
# simulation changed.
benchjson:
	$(GO) run ./cmd/molecule-bench -scenario nipc -o BENCH_nipc.json > /dev/null
	$(GO) run ./cmd/molecule-bench -scenario soak -o BENCH_sim.json
	$(GO) run ./cmd/molecule-bench -scenario cluster -o BENCH_cluster.json
	$(GO) run ./cmd/molecule-bench -scenario coldstart -o BENCH_coldstart.json

# The zygote forest under the race detector (the fitter runs on background
# procs) plus the coldstart scenario (table to stdout, no snapshot).
coldstart-race:
	$(GO) test -race -count=1 -run 'Zygote|ColdStart|Release|ForkFanout|ColdCycle' ./internal/lang/ ./internal/molecule/ ./internal/mem/ ./internal/bench/
	$(GO) run ./cmd/molecule-bench -scenario coldstart

# The cluster control plane and the loadgen stream that drives it under the
# race detector, plus the scaling-sweep smoke (tables to stdout, no snapshot
# rewrite).
cluster-race:
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/httpd/ ./internal/loadgen/
	$(GO) run ./cmd/molecule-bench -scenario cluster

# Regenerate every paper table/figure (plus ablations) to stdout.
report:
	$(GO) run ./cmd/molecule-bench

report-md:
	$(GO) run ./cmd/molecule-bench -md

# Rewrite the golden experiment report after an intentional calibration change.
golden:
	$(GO) test ./internal/bench -run Golden -update

# Run the quickstart workload with observability attached and write an
# example Chrome trace (load trace-demo.json in Perfetto or chrome://tracing)
# plus its Prometheus metrics.
trace-demo:
	$(GO) run ./cmd/molecule-bench -scenario trace > trace-demo.json
	$(GO) run ./cmd/molecule-bench -scenario metrics > metrics-demo.txt

# Critical-path attribution over the demo workload: the per-(fn, PU kind)
# stage breakdown table to stdout plus a folded-stack profile
# (attrib-demo.folded is flamegraph.pl / speedscope input, virtual time).
attrib-demo:
	$(GO) run ./cmd/molecule-bench -scenario attrib
	$(GO) run ./cmd/molecule-bench -scenario profile > attrib-demo.folded

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/fpgapipeline
	$(GO) run ./examples/alexachain
	$(GO) run ./examples/density
	$(GO) run ./examples/cluster
	$(GO) run ./examples/mapreduce
	$(GO) run ./examples/trace
	$(GO) run ./examples/newpu

# The artifacts the evaluation instructions ask for.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
