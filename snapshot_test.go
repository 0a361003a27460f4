package repro

// Snapshot tests: regenerate the deterministic half of a committed BENCH_*.json
// file and compare it exactly, so a change that moves a fingerprint, an event
// count or a virtual-time figure fails `go test ./...` instead of waiting for
// someone to spot it in a JSON diff. Wall-clock fields are skipped by name.

import (
	"encoding/json"
	"fmt"
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
	compareSnapshot(t, "BENCH_cluster.json", sweep, "wall_ms", "worker_counts_checked")
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
	compareSnapshot(t, "BENCH_sim.json", sweep,
		"reps", "wall_ms", "wall_ms_q1", "wall_ms_q3", "events_per_sec", "speedup_vs_shards1")
}

// TestBenchColdStartSnapshot reruns both cold-start arms and checks every
// field of BENCH_coldstart.json's result: startup latencies, PSS, zygote
// tree shape and fingerprints. It skips wall_ms and worker_counts_checked:
// this run uses the sequential kernel only, while `molecule-bench -scenario
// coldstart` cross-checks each arm at several worker counts.
func TestBenchColdStartSnapshot(t *testing.T) {
	res, err := bench.ColdStartSweep(0, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	compareSnapshot(t, "BENCH_coldstart.json", res, "wall_ms", "worker_counts_checked")
}

// TestBenchNIPCSnapshot reruns the batched-nIPC sweep and checks every
// figure of BENCH_nipc.json; all of them are virtual times.
func TestBenchNIPCSnapshot(t *testing.T) {
	compareSnapshot(t, "BENCH_nipc.json", bench.NIPCBatch())
}

// compareSnapshot checks every field of result, at any depth, against file's
// committed result, except the fields named in skip. A failure names the
// field by its path, e.g. result[1].points[2].batched_us.
func compareSnapshot(t *testing.T, file string, result any, skip ...string) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Result any `json:"result"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	var fresh any
	if b, err := json.Marshal(result); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &fresh); err != nil {
		t.Fatal(err)
	}
	skipped := make(map[string]bool, len(skip))
	for _, k := range skip {
		skipped[k] = true
	}
	diffJSON(t, file, "result", fresh, committed.Result, skipped)
}

// diffJSON reports every leaf where got differs from want, walking objects
// in key order and arrays by index.
func diffJSON(t *testing.T, file, path string, got, want any, skip map[string]bool) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			t.Errorf("%s = %v, %s has an object", path, got, file)
			return
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !skip[k] {
				diffJSON(t, file, path+"."+k, g[k], w[k], skip)
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			t.Errorf("%s = %v, %s has %d elements", path, got, file, len(w))
			return
		}
		for i := range w {
			diffJSON(t, file, fmt.Sprintf("%s[%d]", path, i), g[i], w[i], skip)
		}
	default:
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, %s has %v", path, got, file, want)
		}
	}
}
