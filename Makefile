# Convenience targets for the Molecule reproduction.

GO ?= go

.PHONY: all check build vet lint lint-fixtures test race bench-test chaos bench microbench bench-smoke perfjson nipcjson simjson clusterjson coldstartjson coldstart-race cluster-race shards-race report report-md golden trace-demo attrib-demo examples clean

all: check

# The full CI gate: the harness is concurrent, so -race is required, not
# optional; lint machine-checks the determinism/layering/zero-alloc
# invariants the compiler cannot see.
check: build vet lint test race bench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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
# checked, and its fingerprint must match across kernel workers {1,2}.
bench-test:
	$(GO) -C benchmark test ./...

# Seeded fault-injection soak: kill/revive PUs under load, assert no
# invocation is lost or double-billed, and that runs replay from their seed.
# Race-enabled because the recovery path spawns background attempt procs.
chaos:
	$(GO) test -race -run 'TestChaosSoak|TestRetry|TestFailover|TestTimeout' -v ./internal/molecule
	$(GO) run ./cmd/molecule-bench -chaos 42

bench:
	$(GO) test -bench=. -benchmem ./...

# Fast-path microbenchmarks: the sim kernel, the nIPC FIFO write path
# (ns/op and allocs/op), and a warm Molecule invocation end to end.
microbench:
	$(GO) test ./internal/sim -bench 'Kernel|ChanPingPong' -benchmem -run xxx
	$(GO) test ./internal/mem -bench 'ForkFanout' -benchmem -run xxx
	$(GO) test ./internal/xpu -bench 'FIFOWrite' -benchmem -run xxx
	$(GO) test ./internal/molecule -bench 'InvokeWarm' -benchmem -run xxx

# One iteration of every microbenchmark — a CI smoke test that the bench
# rigs still build and run, without paying for stable numbers. The tiny
# -soak run doubles as a fingerprint-equality check across shard counts.
bench-smoke:
	$(GO) test ./internal/sim -bench 'Kernel|ChanPingPong' -benchtime 1x -run xxx
	$(GO) test ./internal/mem -bench 'ForkFanout' -benchtime 1x -run xxx
	$(GO) test ./internal/xpu -bench 'FIFOWrite' -benchtime 1x -run xxx
	$(GO) test ./internal/molecule -bench 'InvokeWarm' -benchtime 1x -run xxx
	$(GO) run ./cmd/molecule-bench -soak - -soak-inv 2000

# Regenerate the machine-readable perf snapshot (BENCH_kernel.json).
perfjson:
	$(GO) run ./cmd/molecule-bench -timing -json BENCH_kernel.json > /dev/null

# Regenerate the batched-nIPC amortization snapshot (BENCH_nipc.json).
nipcjson:
	$(GO) run ./cmd/molecule-bench -nipc BENCH_nipc.json > /dev/null

# Regenerate the sharded-kernel scaling snapshot (BENCH_sim.json): the
# coupled multi-machine soak at shard counts {1,2,4}∪{NumCPU}, with the
# fingerprint-equality check enforced at every point.
simjson:
	$(GO) run ./cmd/molecule-bench -soak BENCH_sim.json

# Regenerate the cluster scaling snapshot (BENCH_cluster.json): the seeded
# loadgen stream through the boss/worker control plane at machine counts
# {1,2,4}, byte-identity enforced across kernel worker counts per point.
clusterjson:
	$(GO) run ./cmd/molecule-bench -cluster BENCH_cluster.json

# Regenerate the cold-start snapshot (BENCH_coldstart.json): the seeded
# Zipf stream of forced-cold invocations through flat cfork and the zygote
# forest, byte-identity enforced across kernel worker counts per arm.
coldstartjson:
	$(GO) run ./cmd/molecule-bench -coldstart BENCH_coldstart.json

# The zygote forest under the race detector (the fitter runs on background
# procs) plus a small -coldstart smoke (table to stdout, no snapshot).
coldstart-race:
	$(GO) test -race -count=1 -run 'Zygote|ColdStart|Release|ForkFanout' ./internal/lang/ ./internal/molecule/ ./internal/mem/ ./internal/bench/
	$(GO) run ./cmd/molecule-bench -coldstart - -coldstart-inv 120

# The cluster control plane under the race detector plus the scaling-sweep
# smoke (tables to stdout, no snapshot rewrite).
cluster-race:
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/httpd/
	$(GO) run ./cmd/molecule-bench -cluster -

# The sharded kernel under the race detector, with every bench-harness
# simulation forced through the windowed driver at 4 OS workers.
shards-race:
	MOLECULE_SHARDS=4 $(GO) test -race -count=1 ./internal/sim/... ./internal/bench/...

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
	$(GO) run ./cmd/molecule-bench -trace trace-demo.json -metrics metrics-demo.txt

# Critical-path attribution over the demo workload: the per-(fn, PU kind)
# stage breakdown table to stdout plus a folded-stack profile
# (attrib-demo.folded is flamegraph.pl / speedscope input, virtual time).
attrib-demo:
	$(GO) run ./cmd/molecule-bench -attrib - -profile attrib-demo.folded

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
