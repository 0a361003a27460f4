// Package bench is the benchmark harness: one experiment per table and
// figure of the paper's evaluation section. Each experiment builds the
// relevant simulated machine, runs the workload on Molecule and its
// baselines, and reports the same rows/series the paper reports.
//
// The harness backs both the root-level testing.B benchmarks and the
// cmd/molecule-bench CLI.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Experiment reproduces one table or figure.
type Experiment struct {
	ID    string // e.g. "fig10c", "tab4"
	Title string
	Paper string // the headline claim being reproduced
	Run   func() []*metrics.Table
}

var (
	registry []Experiment
	idIndex  = map[string]int{} // ID → position in registry
)

func register(e Experiment) {
	idIndex[e.ID] = len(registry)
	registry = append(registry, e)
}

// All returns every experiment in evaluation-section order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

// evalOrder maps experiment IDs to their position in the paper's evaluation
// section, precomputed once so sorting is O(n log n) map lookups instead of
// rebuilding the ID slice on every comparison.
var evalOrder = func() map[string]int {
	m := map[string]int{}
	for i, k := range []string{
		"fig2a", "fig2b", "fig8", "fig9", "fig10ab", "fig10c", "tab4",
		"fig11a", "fig11bc", "fig12", "fig13", "fig14a", "fig14b", "fig14c",
		"fig14d", "fig14e", "fig14f", "fig14g", "fig14h", "fig15", "tab1", "tab5",
	} {
		m[k] = i
	}
	return m
}()

func order(id string) int {
	if i, ok := evalOrder[id]; ok {
		return i
	}
	return 1 << 20
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	if i, ok := idIndex[id]; ok {
		return registry[i], true
	}
	return Experiment{}, false
}

// Result is one executed experiment: its tables plus the wall-clock time
// Run took. Tables are pure data, so rendering can happen later, on a
// different goroutine, in any order.
type Result struct {
	Experiment
	Tables []*metrics.Table
	Wall   time.Duration
}

// RunEach executes every experiment and calls emit for each, always in
// evaluation-section order. workers > 1 runs experiments concurrently on
// that many goroutines (workers <= 0 means GOMAXPROCS); each experiment owns
// an isolated sim.Env, so concurrency cannot change any result, and emit is
// only ever called from the caller's goroutine, in order — output is
// byte-identical to a sequential run. An experiment's results are emitted as
// soon as it and all its predecessors have finished.
func RunEach(workers int, emit func(Result)) {
	exps := All()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers <= 1 {
		for _, e := range exps {
			emit(runOne(e))
		}
		return
	}
	results := make([]Result, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(exps) {
					return
				}
				results[i] = runOne(exps[i])
				close(done[i])
			}
		}()
	}
	for i := range exps {
		<-done[i]
		emit(results[i])
	}
}

func runOne(e Experiment) Result {
	start := time.Now()
	tables := e.Run()
	return Result{Experiment: e, Tables: tables, Wall: time.Since(start)}
}

// Timing is one experiment's wall-clock run time in a report.
type Timing struct {
	ID     string  `json:"id"`
	WallMS float64 `json:"wall_ms"`
}

// Report executes every experiment on workers goroutines (see RunEach) and
// writes the full report to w, as markdown when md is set. The bytes are
// identical at any worker count. It returns each experiment's wall time in
// report order.
func Report(w io.Writer, workers int, md bool) []Timing {
	head, render := "### %s — %s\n    paper: %s\n\n", (*metrics.Table).Fprint
	if md {
		fmt.Fprintln(w, "# Molecule reproduction — experiment report")
		fmt.Fprintln(w)
		head, render = "## %s — %s\n\n> paper: %s\n\n", (*metrics.Table).Markdown
	}
	var timings []Timing
	RunEach(workers, func(r Result) {
		fmt.Fprintf(w, head, r.ID, r.Title, r.Paper)
		for _, t := range r.Tables {
			render(t, w)
		}
		timings = append(timings, Timing{ID: r.ID, WallMS: ms(r.Wall)})
	})
	return timings
}

// ms converts a wall-clock duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// kernel selects the scheduler a single-domain simulation runs on.
type kernel int

const (
	classic  kernel = iota // one sim.Env driven by Env.Run
	windowed               // a one-domain sim.Sharded with a 1ms lookahead
)

func (k kernel) String() string { return [...]string{"classic", "windowed"}[k] }

// simKernel is the kernel sandboxed runs every experiment on. It is classic
// outside tests; the harness determinism tests switch it to windowed to run
// the whole suite through the windowed driver, which must produce
// bit-identical results.
var simKernel = classic

// drive runs body as the driver process of a fresh simulation on kernel k
// and returns after the simulation drains.
func drive(k kernel, body func(p *sim.Proc)) {
	if k == classic {
		env := sim.NewEnv()
		env.Spawn("bench-driver", body)
		env.Run()
		return
	}
	sh := sim.NewSharded(1)
	sh.LimitLookahead(time.Millisecond)
	sh.Domain(0).Spawn("bench-driver", body)
	sh.Run()
}

// sandboxed drives body on simKernel. Running the full experiment suite
// through the windowed driver is the broadest regression test the sharded
// kernel has.
func sandboxed(body func(p *sim.Proc)) { drive(simKernel, body) }

// newMolecule builds a Molecule runtime inside the driver process.
func newMolecule(p *sim.Proc, cfg hw.Config, opts molecule.Options) *molecule.Runtime {
	m := hw.Build(p.Env(), cfg)
	rt, err := molecule.New(p, m, workloads.NewRegistry(), opts)
	if err != nil {
		panic(err)
	}
	return rt
}

// fd formats a duration cell.
func fd(d time.Duration) string { return metrics.FmtDur(d) }

// fr formats a ratio cell.
func fr(r float64) string { return metrics.FmtRatio(r) }
