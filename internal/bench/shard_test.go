package bench

// Determinism tests for the sharded kernel at the harness level: the entire
// experiment report, the chaos soak, and the observability demo's Chrome
// trace must be byte-identical whether the simulations run on the classic
// sequential kernel or the sharded windowed driver at any worker count.

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// shardSweep is the worker counts the determinism tests exercise: the
// classic kernel (0), the windowed driver at 1, 2, 4 workers, and NumCPU.
func shardSweep() []int {
	return []int{0, 1, 2, 4, runtime.NumCPU()}
}

// withShards runs f at the given kernel worker count and restores the
// previous setting afterwards.
func withShards(n int, f func()) {
	prev := SimShards()
	SetSimShards(n)
	defer SetSimShards(prev)
	f()
}

// TestShardedGoldenReport renders the full experiment report under the
// sharded driver at every sweep point and requires the bytes to match the
// committed golden file — the same file the classic kernel is locked to.
func TestShardedGoldenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report.golden"))
	if err != nil {
		t.Fatalf("no golden report; run TestGoldenReport -update first: %v", err)
	}
	for _, n := range shardSweep() {
		withShards(n, func() {
			var buf bytes.Buffer
			Report(&buf, 0, false)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("shards=%d: report diverges from golden (%d vs %d bytes)", n, buf.Len(), len(want))
			}
		})
	}
}

// TestShardedChaosDemo locks the seeded chaos soak — kill/revive plus fault
// injection, the most scheduling-sensitive workload in the repo — to the
// same bytes at every kernel worker count.
func TestShardedChaosDemo(t *testing.T) {
	const seed = 42 // the CI soak's seed (make chaos)
	var ref []byte
	for _, n := range shardSweep() {
		withShards(n, func() {
			var buf bytes.Buffer
			if err := ChaosDemo(&buf, seed); err != nil {
				t.Fatalf("shards=%d: %v", n, err)
			}
			if ref == nil {
				ref = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), ref) {
				t.Fatalf("shards=%d: chaos soak output diverges from classic kernel", n)
			}
		})
	}
}

// TestShardedObsTrace locks the observability demo's Chrome trace and
// Prometheus exports across kernel worker counts: span timings come straight
// from the virtual clock, so a single ns of divergence shows up here.
func TestShardedObsTrace(t *testing.T) {
	var refTrace, refMetrics []byte
	for _, n := range shardSweep() {
		withShards(n, func() {
			o, err := ObsDemo()
			if err != nil {
				t.Fatalf("shards=%d: %v", n, err)
			}
			var trace, metrics bytes.Buffer
			if err := o.Tracer.WriteChromeTrace(&trace); err != nil {
				t.Fatalf("shards=%d: %v", n, err)
			}
			if err := o.Metrics.WritePrometheus(&metrics); err != nil {
				t.Fatalf("shards=%d: %v", n, err)
			}
			if refTrace == nil {
				refTrace, refMetrics = trace.Bytes(), metrics.Bytes()
				return
			}
			if !bytes.Equal(trace.Bytes(), refTrace) {
				t.Fatalf("shards=%d: Chrome trace diverges from classic kernel", n)
			}
			if !bytes.Equal(metrics.Bytes(), refMetrics) {
				t.Fatalf("shards=%d: metrics export diverges from classic kernel", n)
			}
		})
	}
}

// TestShardSoakSweepDeterminism runs the BENCH_sim.json soak sweep twice and
// checks both that every shard count fingerprints identically (enforced
// inside ShardSoakSweep) and that the whole sweep is repeatable.
func TestShardSoakSweepDeterminism(t *testing.T) {
	points := [][2]int{{1, 1}, {2, 0}, {4, 1}, {4, 0}}
	if n := runtime.NumCPU(); n > 4 {
		points = append(points, [2]int{4, n})
	}
	a, err := ShardSoakSweep(4, 1500, 1, points)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ShardSoakSweep(4, 1500, 1, points)
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
	if _, err := ShardSoakSweep(4, 100, 1, [][2]int{{2, 0}, {4, 0}}); err == nil {
		t.Fatal("sweep without a shards=1 baseline was accepted")
	}
	if _, err := ShardSoakSweep(4, 100, 1, [][2]int{{1, 2}, {4, 0}}); err == nil {
		t.Fatal("sweep with a multi-worker baseline was accepted")
	}
	if _, err := ShardSoakSweep(4, 100, 0, [][2]int{{1, 1}}); err == nil {
		t.Fatal("sweep without a timed rep was accepted")
	}
	if _, err := ShardSoak(ShardSoakConfig{Machines: 2, Invocations: 10, Shards: 3}); err == nil {
		t.Fatal("more shards than machines was accepted")
	}
	if _, err := ShardSoak(ShardSoakConfig{Machines: 1, Invocations: 10, Shards: 1}); err == nil {
		t.Fatal("single-machine soak was accepted")
	}
}
