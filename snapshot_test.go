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
	raw, err := os.ReadFile("BENCH_cluster.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Result []map[string]any `json:"result"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("BENCH_cluster.json: %v", err)
	}
	sweep, err := bench.ClusterSoakSweep([]int{1, 2, 4}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	var fresh []map[string]any
	if b, err := json.Marshal(sweep); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &fresh); err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(committed.Result) {
		t.Fatalf("sweep has %d points, BENCH_cluster.json %d", len(fresh), len(committed.Result))
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
		delete(keys, "wall_ms")
		delete(keys, "worker_counts_checked")
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("machines=%v: %s = %v, BENCH_cluster.json has %v", want["machines"], k, got[k], want[k])
			}
		}
	}
}
