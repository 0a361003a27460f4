package repro

// Snapshot tests: regenerate the deterministic half of a committed BENCH_*.json
// file and compare it exactly, so a change that moves a fingerprint, an event
// count or a virtual-time figure fails `go test ./...` instead of waiting for
// someone to spot it in a JSON diff. Wall-clock fields are skipped by name.

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bench"
)

// TestBenchClusterSnapshot reruns the cluster scaling sweep at 1/2/4
// machines and checks every field of BENCH_cluster.json's result. It skips
// wall_ms and worker_counts_checked: this run is timed once, at one kernel
// worker, while `molecule-bench -scenario cluster` cross-checks each point
// at several.
func TestBenchClusterSnapshot(t *testing.T) {
	sweep, err := bench.ClusterSoakSweep([]int{1, 2, 4}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	compareSnapshot(t, "BENCH_cluster.json", sweep, "machines", "wall_ms", "worker_counts_checked")
}

// TestBenchSimSnapshot reruns the sharded-kernel soak sweep and checks
// BENCH_sim.json's events, fingerprints, rounds and events per round. It
// skips the wall fields and reps: this run times each point once, while
// `molecule-bench -scenario soak` takes the median of several.
func TestBenchSimSnapshot(t *testing.T) {
	sweep, err := bench.ShardSoakSweep(4, 50000, 1, [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	compareSnapshot(t, "BENCH_sim.json", sweep, "shards",
		"reps", "wall_ms", "wall_ms_q1", "wall_ms_q3", "events_per_sec", "speedup_vs_shards1")
}

// compareSnapshot checks every field of each point in sweep against the
// same point of file's result, except the fields named in skip. Failures
// name a point by its key field.
func compareSnapshot(t *testing.T, file string, sweep any, key string, skip ...string) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Result []map[string]any `json:"result"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	var fresh []map[string]any
	if b, err := json.Marshal(sweep); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &fresh); err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(committed.Result) {
		t.Fatalf("sweep has %d points, %s %d", len(fresh), file, len(committed.Result))
	}
	for i, got := range fresh {
		want := committed.Result[i]
		keys := make(map[string]bool)
		for k := range got {
			keys[k] = true
		}
		for k := range want {
			keys[k] = true
		}
		for _, k := range skip {
			delete(keys, k)
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("point %d (%s=%v): %s = %v, %s has %v", i, key, want[key], k, got[k], file, want[k])
			}
		}
	}
}
