package bench

// Determinism tests for the sharded kernel at the harness level: the entire
// experiment report, the chaos soak, and the observability demo's Chrome
// trace must be byte-identical whether the simulations run on the classic
// sequential kernel or the sharded windowed driver.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// kernels is every kernel the determinism tests run the harness on.
var kernels = []kernel{classic, windowed}

// withKernel runs f with every experiment on kernel k and restores the
// previous setting afterwards.
func withKernel(k kernel, f func()) {
	prev := simKernel
	simKernel = k
	defer func() { simKernel = prev }()
	f()
}

// TestShardedGoldenReport renders the full experiment report on both kernels
// and requires the bytes to match the committed golden file.
func TestShardedGoldenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report.golden"))
	if err != nil {
		t.Fatalf("no golden report; run TestGoldenReport -update first: %v", err)
	}
	for _, k := range kernels {
		withKernel(k, func() {
			var buf bytes.Buffer
			Report(&buf, 0, false)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%v kernel: report diverges from golden (%d vs %d bytes)", k, buf.Len(), len(want))
			}
		})
	}
}

// TestShardedChaosDemo locks the seeded chaos soak — kill/revive plus fault
// injection, the most scheduling-sensitive workload in the repo — to the
// same bytes on both kernels.
func TestShardedChaosDemo(t *testing.T) {
	const seed = 42 // the CI soak's seed (make chaos)
	var ref []byte
	for _, k := range kernels {
		withKernel(k, func() {
			var buf bytes.Buffer
			if err := ChaosDemo(&buf, seed); err != nil {
				t.Fatalf("%v kernel: %v", k, err)
			}
			if ref == nil {
				ref = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), ref) {
				t.Fatal("windowed kernel: chaos soak output diverges from classic kernel")
			}
		})
	}
}

// TestShardedObsTrace locks the observability demo's Chrome trace and
// Prometheus exports on both kernels: span timings come straight
// from the virtual clock, so a single ns of divergence shows up here.
func TestShardedObsTrace(t *testing.T) {
	var refTrace, refMetrics []byte
	for _, k := range kernels {
		withKernel(k, func() {
			o, err := ObsDemo()
			if err != nil {
				t.Fatalf("%v kernel: %v", k, err)
			}
			var trace, metrics bytes.Buffer
			if err := o.Tracer.WriteChromeTrace(&trace); err != nil {
				t.Fatalf("%v kernel: %v", k, err)
			}
			if err := o.Metrics.WritePrometheus(&metrics); err != nil {
				t.Fatalf("%v kernel: %v", k, err)
			}
			if refTrace == nil {
				refTrace, refMetrics = trace.Bytes(), metrics.Bytes()
				return
			}
			if !bytes.Equal(trace.Bytes(), refTrace) {
				t.Fatal("windowed kernel: Chrome trace diverges from classic kernel")
			}
			if !bytes.Equal(metrics.Bytes(), refMetrics) {
				t.Fatal("windowed kernel: metrics export diverges from classic kernel")
			}
		})
	}
}

// TestShardSoakSweepDeterminism runs the BENCH_sim.json soak sweep twice and
// checks both that every shard count fingerprints identically (enforced
// inside ShardSoakSweep) and that the whole sweep is repeatable.
func TestShardSoakSweepDeterminism(t *testing.T) {
	shardCounts := []int{1, 2, 4}
	a, err := ShardSoakSweep(4, 1500, shardCounts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ShardSoakSweep(4, 1500, shardCounts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Fingerprint != b[i].Fingerprint {
			t.Fatalf("shards=%d: soak not repeatable:\n  run1 %s\n  run2 %s",
				a[i].Shards, a[i].Fingerprint, b[i].Fingerprint)
		}
		if a[i].Events != a[0].Events {
			t.Fatalf("shards=%d scheduled %d events, shards=%d scheduled %d — partitioning changed the event count",
				a[i].Shards, a[i].Events, a[0].Shards, a[0].Events)
		}
		if a[i].Rounds == 0 || a[i].Rounds != b[i].Rounds || a[i].EventsPerRound != b[i].EventsPerRound {
			t.Fatalf("shards=%d: rounds %d (%.1f events each), then %d (%.1f) — window telemetry not repeatable",
				a[i].Shards, a[i].Rounds, a[i].EventsPerRound, b[i].Rounds, b[i].EventsPerRound)
		}
	}
}

// TestShardSoakRejectsBadSweep pins the sweep's guard rails: it must start
// from the monolithic baseline and must reject configurations that cannot
// partition the machines.
func TestShardSoakRejectsBadSweep(t *testing.T) {
	if _, err := ShardSoakSweep(4, 100, []int{2, 4}); err == nil {
		t.Fatal("sweep without a shards=1 baseline was accepted")
	}
	if _, err := ShardSoak(ShardSoakConfig{Machines: 2, Invocations: 10, Shards: 3}); err == nil {
		t.Fatal("more shards than machines was accepted")
	}
	if _, err := ShardSoak(ShardSoakConfig{Machines: 1, Invocations: 10, Shards: 1}); err == nil {
		t.Fatal("single-machine soak was accepted")
	}
}

// BenchmarkShardSoak times the BENCH_sim.json soak, 4 machines x 50000
// invocations, unobserved at each shard count and reports the kernel's
// throughput as events/s. The rounds and fingerprints it runs are the
// ones ShardSoakSweep checks; the wall numbers live only here:
//
//	go test ./internal/bench -run '^$' -bench ShardSoak -count 10 | benchstat -
func BenchmarkShardSoak(b *testing.B) {
	const machines, invocations = 4, 50000
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var events int64
			for i := 0; i < b.N; i++ {
				r, err := ShardSoak(ShardSoakConfig{Machines: machines, Invocations: invocations, Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				events += r.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
