package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// testScale runs every workload at about 1/100 of its benchmark size.
const testScale = 0.01

// TestWorkloadsDeterministic runs each workload small and checks its
// invariants, that two runs agree, and that the cluster workloads agree
// across kernel worker counts.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			fps := map[string]int{}
			for _, workers := range []int{1, 2, 2} {
				r, err := runRep(w, config{seed: 7, scale: testScale, workers: workers}, false, "")
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 {
					t.Fatalf("workers=%d: %d of %d ops failed", workers, r.failed, r.ops)
				}
				fps[r.fp] = workers
			}
			if len(fps) != 1 {
				t.Fatalf("fingerprints differ across runs and worker counts: %v", fps)
			}
		})
	}
}

// benchmarkFile is the benchmark's declaration at the repo root.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNames checks that BENCHMARK.json and the program agree on every
// workload and metric, its unit and its direction, and that names are
// valid.
func TestNames(t *testing.T) {
	bf := readBenchmarkFile(t)
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := strings.Join(declared, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, n := range workloadNames() {
		if !validName.MatchString(n) {
			t.Errorf("invalid workload name %q", n)
		}
	}
	for _, m := range metrics {
		if !validName.MatchString(m.name) {
			t.Errorf("invalid metric name %q", m.name)
		}
	}
	for _, group := range []struct {
		e2e  bool
		list []struct{ Name, Unit, Better string }
	}{{true, bf.EndToEnd}, {false, bf.PerLayer}} {
		for _, d := range group.list {
			m, ok := metricByName(d.Name)
			switch {
			case !ok:
				t.Errorf("BENCHMARK.json metric %s is not defined", d.Name)
			case m.e2e != group.e2e || m.unit != d.Unit || m.better != d.Better:
				t.Errorf("BENCHMARK.json metric %s: unit %s, better %s, e2e %v; program says %s, %s, %v",
					d.Name, d.Unit, d.Better, group.e2e, m.unit, m.better, m.e2e)
			}
		}
	}
}

// TestEmitsDeclaredMetrics runs the whole program small on every workload,
// once per trace mode, and checks that the result line carries every
// metric BENCHMARK.json declares for that mode, with its unit.
func TestEmitsDeclaredMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloadList {
		for trace, want := range [][]struct{ Name, Unit, Better string }{bf.EndToEnd, bf.PerLayer} {
			var out bytes.Buffer
			o := options{workload: w.name, seed: 3, trace: trace, scale: testScale, benchtime: "1x"}
			if err := run(o, &out); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s emitted as %+v (present %v), want unit %s", w.name, trace, d.Name, v, ok, d.Unit)
				}
			}
		}
	}
}
