# Convenience targets for the Molecule reproduction.

GO ?= go

.PHONY: all check build vet lint lint-fixtures test race allocpins bench-test fuzz-smoke chaos bench microbench bench-smoke benchjson coldstart-smoke cluster-smoke moleculed-smoke report report-md golden trace-demo attrib-demo examples examples-golden outputs prodcover

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

# -count=1: a cached result would skip the race detector's run.
race:
	$(GO) test -race -count=1 ./...

# The byte pins (the warm cross-PU chain's B/op and the address space's
# size-independent bytes) under aggressive GC, so a count that depends on
# where a GC cycle lands fails here instead of now and then under `test`.
allocpins:
	GOGC=10 $(GO) test -count=1 -run 'TestInvokeChainAllocs$$' ./internal/molecule
	GOGC=10 $(GO) test -count=1 -run 'TestAllocBytesIndependentOfPages$$' ./internal/mem
	GOGC=25 $(GO) test -count=1 -run 'TestInvokeChainAllocs$$' ./internal/molecule
	GOGC=25 $(GO) test -count=1 -run 'TestAllocBytesIndependentOfPages$$' ./internal/mem

# The benchmark's own tests; benchmark/ is a separate module, so `test`
# skips them. Every workload runs at 1/100 scale with its invariants
# checked, and its fingerprint must match across three repeat runs.
bench-test:
	$(GO) -C benchmark test ./...

# Ten seconds each of the differential fuzz targets: random Map/Fork/Write/
# Unmap/Release sequences against the mem run-length extents and the
# per-page reference model, arbitrary package sets against the lang
# sorted-names model of PkgSet, and random deploy/undeploy/invoke/kill/crash
# sequences against the warm-pool counts and the name-based PlaceChain
# reference. Their committed corpora (testdata/fuzz in each package) also
# run as plain tests under `test`.
fuzz-smoke:
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzAddressSpace -fuzztime 10s
	$(GO) test ./internal/lang -run '^$$' -fuzz FuzzPkgSet -fuzztime 10s
	$(GO) test ./internal/molecule -run '^$$' -fuzz FuzzWarmPools -fuzztime 10s

# Seeded fault-injection soak: kill/revive PUs under load, assert no
# invocation is lost or double-billed, and that runs replay from their seed.
# Race-enabled because the recovery path spawns background attempt procs.
chaos:
	$(GO) test -race -run 'TestChaosSoak|TestRetry|TestFailover|TestTimeout' -v ./internal/molecule
	$(GO) run ./cmd/molecule-bench -scenario chaos

bench:
	$(GO) test -bench=. -benchmem ./...

# Fast-path microbenchmarks: the sim kernel (including a Sleep that fires a
# due callback inline, and one sharded round, swept over its size), the nIPC
# FIFO write path
# (ns/op and allocs/op), the address-space fork fan-out and one cold start's
# fork/map/write/release cycle, a warm Molecule invocation end to end, a forced
# cold start under the zygote forest whose release evicts a warm instance, a
# warm cross-PU chain (wiring built and released every call), a chain
# placement refused on a full host (the saturated cluster's path), a warm
# invocation and chain through a one-machine cluster Boss, and the loadgen
# open-loop stream's own cost (allocs/req), and the sharded-kernel soak's
# throughput (events/s) at 1, 2 and 4 shards.
microbench:
	$(GO) test ./internal/sim -bench 'Kernel|ChanPingPong|ShardedRound' -benchmem -run xxx
	$(GO) test ./internal/mem -bench 'ForkFanout|ColdCycle' -benchmem -run xxx
	$(GO) test ./internal/xpu -bench 'FIFOWrite' -benchmem -run xxx
	$(GO) test ./internal/molecule -bench 'InvokeWarm|InvokeCold|InvokeChainCrossPU|PlaceChainRefusal' -benchmem -run xxx
	$(GO) test ./internal/cluster -bench 'BossInvoke' -benchmem -run xxx
	$(GO) test ./internal/loadgen -bench 'DriveOpenLoop' -benchmem -run xxx
	$(GO) test ./internal/bench -bench 'ShardSoak' -run xxx

# One iteration of every microbenchmark — a CI smoke test that the bench
# rigs still build and run, without paying for stable numbers.
bench-smoke:
	$(GO) test ./internal/sim -bench 'Kernel|ChanPingPong|ShardedRound' -benchtime 1x -run xxx
	$(GO) test ./internal/mem -bench 'ForkFanout|ColdCycle' -benchtime 1x -run xxx
	$(GO) test ./internal/xpu -bench 'FIFOWrite' -benchtime 1x -run xxx
	$(GO) test ./internal/molecule -bench 'InvokeWarm|InvokeCold|InvokeChainCrossPU|PlaceChainRefusal' -benchtime 1x -run xxx
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

# The cold-start paths end to end: the coldstart scenario (both arms are
# fingerprint-checked, classic kernel against windowed driver, before the
# table goes to stdout; no snapshot) and a molecule-load run with cfork on
# and one with plain boots. Their packages' tests run under the race
# detector in `race`.
coldstart-smoke:
	$(GO) run ./cmd/molecule-bench -scenario coldstart
	$(GO) run ./cmd/molecule-load -cfork=true
	$(GO) run ./cmd/molecule-load -cfork=false -duration 2s

# The cluster scaling-sweep smoke (tables to stdout, no snapshot rewrite).
# The cluster, httpd, loadgen and kernel tests run under the race detector
# in `race`.
cluster-smoke:
	$(GO) run ./cmd/molecule-bench -scenario cluster

# One scripted HTTP session against a plain moleculed build, as one machine
# and as a 2-machine cluster: every route answers with the status it should,
# and SIGTERM ends the daemon with exit status 0.
moleculed-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/moleculed" ./cmd/moleculed && \
	bash scripts/moleculed-session.sh "$$tmp/moleculed"

# Report-only production coverage: build every entry point with -cover,
# run the production set once (full report, every scenario, the examples,
# molecule-load with cfork on and off, the benchmark at --seconds 0, the
# scripted moleculed session) and
# print each function under internal/ that no run reached. About 30 s on a
# 2-vCPU container with a warm build cache (23 s of runs). Not part of
# check or CI; it gates nothing.
prodcover:
	bash scripts/prodcover.sh

# Regenerate every paper table/figure (plus ablations) to stdout.
report:
	$(GO) run ./cmd/molecule-bench

report-md:
	$(GO) run ./cmd/molecule-bench -md

# Rewrite the golden experiment report and the chaos soak's golden output
# after an intentional calibration change.
golden:
	$(GO) test ./internal/bench -run 'Golden|ChaosDemo' -update

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

EXAMPLES := quickstart fpgapipeline alexachain density cluster mapreduce trace newpu

# Run every example and compare its stdout byte for byte with
# examples/<name>/output.golden (the simulation is deterministic, so any
# difference is a behavior change).
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for ex in $(EXAMPLES); do \
		$(GO) run ./examples/$$ex > "$$tmp/$$ex" || exit 1; \
		if ! cmp -s "$$tmp/$$ex" examples/$$ex/output.golden; then \
			diff -u examples/$$ex/output.golden "$$tmp/$$ex"; \
			echo "examples/$$ex: output differs from output.golden (make examples-golden rewrites it)"; exit 1; \
		fi; \
		echo "examples/$$ex: output matches output.golden"; \
	done

# Rewrite every example's output.golden, only after an intentional change
# to what an example prints.
examples-golden:
	for ex in $(EXAMPLES); do $(GO) run ./examples/$$ex > examples/$$ex/output.golden || exit 1; done

# The artifacts the evaluation instructions ask for.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
