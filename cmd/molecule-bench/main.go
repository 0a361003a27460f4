// Command molecule-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	molecule-bench                        # run every experiment (parallel)
//	molecule-bench -parallel 1            # sequential run (same bytes)
//	molecule-bench -exp fig10c            # run one experiment
//	molecule-bench -list                  # list experiment IDs and scenarios
//	molecule-bench -timing                # append per-experiment wall times
//	molecule-bench -scenario soak         # run one scenario, tables to stdout
//	molecule-bench -scenario soak -o BENCH_sim.json
//	                                      # + its artifact as a JSON snapshot
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

var parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "experiments to run concurrently (1 = sequential; output is identical either way)")

// scenarios is every -scenario, in -list order. Each run prints its tables
// to w and returns the artifact that -o records.
var scenarios = []struct {
	name, about string
	run         func(w io.Writer) (any, error)
}{
	{"nipc", "batched-nIPC amortization sweep (BENCH_nipc.json)", func(w io.Writer) (any, error) {
		sweeps := bench.NIPCBatch()
		for _, t := range bench.NIPCBatchTables(sweeps) {
			t.Fprint(w)
		}
		return sweeps, nil
	}},
	{"soak", "sharded-kernel scaling soak, 4 machines x 50000 invocations (BENCH_sim.json)", runShardSoak},
	{"cluster", "boss/worker cluster scaling at 1, 2 and 4 machines (BENCH_cluster.json)", func(w io.Writer) (any, error) {
		points, err := bench.ClusterSoakSweep([]int{1, 2, 4})
		if err != nil {
			return nil, err
		}
		bench.ClusterSoakTable(points).Fprint(w)
		return points, nil
	}},
	{"coldstart", "flat cfork vs zygote forest, 600 forced-cold invocations per arm (BENCH_coldstart.json)", func(w io.Writer) (any, error) {
		res, err := bench.ColdStartSweep(0)
		if err != nil {
			return nil, err
		}
		bench.ColdStartTable(res).Fprint(w)
		return res, nil
	}},
	{"chaos", "seeded chaos soak (seed 42): PU kill/revive plus fault injection", func(w io.Writer) (any, error) {
		return tee(w, func(w io.Writer) error { return bench.ChaosDemo(w, 42) })
	}},
	{"trace", "observability demo workload's Chrome trace JSON", func(w io.Writer) (any, error) {
		o, err := bench.ObsDemo()
		if err != nil {
			return nil, err
		}
		s, err := tee(w, o.Tracer.WriteChromeTrace)
		return json.RawMessage(s), err
	}},
	{"metrics", "observability demo workload's Prometheus metrics", func(w io.Writer) (any, error) {
		o, err := bench.ObsDemo()
		if err != nil {
			return nil, err
		}
		return tee(w, o.Metrics.WritePrometheus)
	}},
	{"attrib", "attribution demo's per-(fn, PU kind) critical-path breakdown", func(w io.Writer) (any, error) {
		_, an, err := bench.AttribDemo()
		if err != nil {
			return nil, err
		}
		t := an.BreakdownTable()
		t.Fprint(w)
		return t, nil
	}},
	{"profile", "attribution demo's virtual-time folded-stack profile (flamegraph.pl input)", func(w io.Writer) (any, error) {
		_, an, err := bench.AttribDemo()
		if err != nil {
			return nil, err
		}
		return tee(w, an.WriteFolded)
	}},
}

// runScenario runs the named scenario with its tables on w and, when path
// is non-empty, writes its artifact there in the snapshot envelope.
func runScenario(name string, w io.Writer, path string) error {
	for _, s := range scenarios {
		if s.name != name {
			continue
		}
		result, err := s.run(w)
		if err != nil || path == "" {
			return err
		}
		return writeSnapshot(path, name, result)
	}
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return fmt.Errorf("unknown scenario %q; valid: %s", name, strings.Join(names, ", "))
}

// snapshot is the one envelope every -o artifact is written in: which
// scenario produced it, on what host, and the scenario's own result.
type snapshot struct {
	Scenario string `json:"scenario"`
	Host     struct {
		GoVersion  string `json:"go_version"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"host"`
	Result any `json:"result"`
}

func writeSnapshot(path, name string, result any) error {
	snap := snapshot{Scenario: name, Result: result}
	snap.Host.GoVersion = runtime.Version()
	snap.Host.GOOS, snap.Host.GOARCH = runtime.GOOS, runtime.GOARCH
	snap.Host.NumCPU, snap.Host.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// tee renders into w and returns the rendered text as the artifact.
func tee(w io.Writer, render func(io.Writer) error) (string, error) {
	var buf bytes.Buffer
	err := render(io.MultiWriter(w, &buf))
	return buf.String(), err
}

func runShardSoak(w io.Writer) (any, error) {
	const machines, inv, reps = 4, 50000, 11
	points, err := bench.ShardSoakSweep(machines, inv, reps, []int{1, 2, 4})
	if err != nil {
		return nil, err
	}
	bench.ShardSoakTable(points).Fprint(w)
	// The widest point's telemetry.
	return points, points[len(points)-1].Telemetry.WriteText(w)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func printTimings(w io.Writer, timings []bench.Timing, total time.Duration) {
	fmt.Fprintf(w, "### timing — wall clock, %d worker(s)\n\n", *parallel)
	for _, t := range timings {
		fmt.Fprintf(w, "    %-16s %8.1f ms\n", t.ID, t.WallMS)
	}
	fmt.Fprintf(w, "    %-16s %8.1f ms\n\n", "TOTAL", ms(total))
}

func main() {
	exp := flag.String("exp", "", "experiment id(s) to run, comma separated (default: all)")
	list := flag.Bool("list", false, "list experiment ids, then scenario names")
	md := flag.Bool("md", false, "emit the full report as markdown")
	timing := flag.Bool("timing", false, "append per-experiment wall time and total after the report")
	scenario := flag.String("scenario", "", "run the named scenario (see -list), print its tables, then exit")
	out := flag.String("o", "", "with -scenario: also write its artifact as a JSON snapshot (scenario, host, result) to this `file`")
	flag.Parse()

	if *out != "" && *scenario == "" {
		fmt.Fprintln(os.Stderr, "-o needs -scenario")
		os.Exit(2)
	}
	if *scenario != "" {
		if err := runScenario(*scenario, os.Stdout, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		fmt.Println("\nscenarios (-scenario NAME):")
		for _, s := range scenarios {
			fmt.Printf("%-10s %s\n", s.name, s.about)
		}
		return
	}

	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; -list shows available ids\n", id)
				os.Exit(1)
			}
			fmt.Printf("### %s — %s\n    paper: %s\n\n", e.ID, e.Title, e.Paper)
			for _, t := range e.Run() {
				t.Fprint(os.Stdout)
			}
		}
		return
	}

	// Full report. Report streams results in evaluation-section order, so
	// the report bytes match a sequential run at any -parallel value.
	start := time.Now()
	timings := bench.Report(os.Stdout, *parallel, *md)
	if *timing {
		printTimings(os.Stdout, timings, time.Since(start))
	}
}
