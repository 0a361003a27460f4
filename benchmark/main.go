// Command benchmark is the repo's one benchmark: four seeded workloads
// driven through the public APIs of the simulator's layers, reporting
// end-to-end metrics (host throughput, set-up time and heap; virtual
// latency, goodput and memory) and per-layer metrics (a CPU
// profile attributed to the layer packages, client-side spans around each
// layer call, and a microbenchmark ladder). See README.md.
//
//	go run . -seed 42                       # every workload, every metric
//	go run . -workload chain-nipc -seconds 25 -trace 0
//
// The last line of standard output is one JSON object with the metrics.
// The exit code is non-zero if any invariant or determinism check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// kernelWorkers is the OS worker count of the sharded kernel in the
// cluster workloads.
const kernelWorkers = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
	// scale multiplies every workload's op count; tests run at 0.01.
	scale float64
	// benchtime is each ladder rung's -test.benchtime; derived from
	// seconds when empty.
	benchtime string
}

func main() {
	testing.Init() // registers -test.benchtime, which the ladder sets
	o := options{scale: 1}
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 42, "seed every workload input derives from")
	flag.IntVar(&o.seconds, "seconds", 0, "host seconds of timed reps per workload, beyond the minimum of one per sub-seed")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only, no profiler; 1: per-layer metrics (adds a profiled run and the ladder); -1: both")
	flag.StringVar(&o.spans, "spans", "", "directory to write each workload's client spans to, as JSONL")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return names
}

// result is the JSON object the last output line carries.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures the selected workloads, prints the report to out, and ends
// it with the JSON result line. With several workloads, metric names carry
// the workload name as a prefix.
func run(o options, out io.Writer) error {
	var ws []*workload
	if o.workload == "all" {
		ws = workloadList
	} else if w := lookupWorkload(o.workload); w != nil {
		ws = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q (want all or one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace < -1 || o.trace > 1 || o.scale <= 0 || o.seconds < 0 {
		return errors.New("need -trace in {-1,0,1}, -scale > 0, -seconds >= 0")
	}
	fmt.Fprintf(out, "host: NumCPU=%d GOMAXPROCS=%d go=%s %s/%s kernel_workers=%d seed=%d sub_seeds=%d seconds=%d scale=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		kernelWorkers, o.seed, subSeeds, o.seconds, o.scale, o.trace)

	res := result{Correct: true, Metrics: map[string]value{}}
	var runErr error
	for _, w := range ws {
		wr, err := runWorkload(w, o)
		if err != nil {
			runErr = fmt.Errorf("%s: %w", w.name, err)
			break
		}
		wr.print(out, o.trace)
		res.Attempted += wr.attempted
		res.Failed += wr.failed
		prefix := ""
		if len(ws) > 1 {
			prefix = w.name + "."
		}
		for name, v := range wr.values {
			if m, _ := metricByName(name); o.trace == -1 || m.e2e == (o.trace == 0) {
				res.Metrics[prefix+name] = value{v, m.unit}
			}
		}
	}
	if runErr == nil && o.trace != 0 {
		bt := o.benchtime
		if bt == "" {
			// Keep the ladder near a quarter of the -seconds budget.
			d := 300 * time.Millisecond
			if o.seconds > 0 {
				d = max(50*time.Millisecond, time.Duration(o.seconds)*time.Second/time.Duration(6*len(ladder)))
			}
			bt = d.String()
		}
		lad, err := runLadder(out, bt)
		if err != nil {
			runErr = err
		}
		for name, v := range lad {
			m, _ := metricByName(name)
			res.Metrics[name] = value{v, m.unit}
		}
	}
	if runErr == nil && res.Failed > 0 {
		runErr = fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	res.Correct = runErr == nil
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return runErr
}

func (wr *workloadReport) print(out io.Writer, trace int) {
	fmt.Fprintf(out, "== %s: %s\n   why: %s\n", wr.w.name, wr.w.shape, wr.w.why)
	profiled := ""
	if wr.prof != nil {
		profiled = " and the profiled run"
	}
	fmt.Fprintf(out, "   fingerprint %s over %d sub-seeds (%d timed reps%s reproduce them); attempted %d, failed %d, error_ratio %g\n",
		wr.fp, subSeeds, len(wr.reps), profiled, wr.attempted, wr.failed, float64(wr.failed)/float64(wr.attempted))
	line := func(kind string, sub int, r *rep) {
		fmt.Fprintf(out, "   %-8s sub-seed %d, fingerprint %s, setup %.6f s, run %.3f s, %.1f ops/s, peak live heap %.1f MB, %g GC cycles\n",
			kind, sub, r.fp, r.setup.Seconds(), r.wall.Seconds(), float64(r.ops)/r.wall.Seconds(), r.peakLive/mib, r.gcCycles)
	}
	for i, r := range wr.reps {
		line(fmt.Sprintf("rep %d", i), i%subSeeds, r)
	}
	if wr.prof != nil {
		line("profiled", 0, wr.prof)
	}
	for _, m := range metrics {
		v, ok := wr.values[m.name]
		if !ok || (trace == 0 && !m.e2e) || (trace == 1 && m.e2e) {
			continue
		}
		line := fmt.Sprintf("  %-40s %14.6g %-6s", m.name, v, m.unit)
		if s, ok := wr.spread[m.name]; ok {
			line += fmt.Sprintf(" median [q1 %.6g, q3 %.6g]", s[1], s[2])
		}
		if m.name == "v_p50_ms" || m.name == "v_p99_ms" {
			line += fmt.Sprintf(" n=%d", wr.samples)
		}
		fmt.Fprintln(out, line)
	}
}
