package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"testing"
	"time"
)

// setupBlock is how many set-ups are timed, back to back, before each
// timed rep. One set-up takes well under a millisecond, so setup_s is the
// median of all blocks' samples, spread over the run.
const setupBlock = 40

// subSeeds is how many input sets one run covers: rep i runs sub-seed
// i mod subSeeds of the run's seed. The queueing and keep-alive dynamics
// are chaotic, so one input set can land far from the typical outcome;
// virtual metrics are the mean over the sub-seeds. With 16, the metric that
// moves most, chain-nipc's p50 (set by eight seeded placements per
// sub-seed), moves by about 5% of its median from one seed to the next.
const subSeeds = 16

// rep is one timed (or profiled) run of a workload.
type rep struct {
	setup    time.Duration
	wall     time.Duration
	fp       string
	virtual  map[string]float64
	samples  int
	ops      int
	failed   int
	events   int64
	allocB   float64
	mallocs  float64
	gcCycles float64
	peakLive float64
	refMs    float64          // reference-mix time around the rep; timed reps only
	cpuNanos map[string]int64 // per layer; profiled run only
}

// workloadReport aggregates one workload's reps.
type workloadReport struct {
	w         *workload
	reps      []*rep                // timed
	prof      *rep                  // profiled, or nil
	spread    map[string][3]float64 // host metric -> median, q1, q3
	values    map[string]float64
	samples   int
	fp        string
	attempted int
	failed    int
}

// runWorkload samples set-up, runs the timed reps and, unless o.trace is
// 0, one profiled rep. Timed reps cycle through the sub-seeds, at least once
// each, until o.seconds (half of it when profiling) have passed. A trace-0
// run repeats sub-seed 0 at least once; otherwise the profiled rep does.
// Every repeat must reproduce its sub-seed's fingerprint.
func runWorkload(w *workload, o options) (*workloadReport, error) {
	cfgFor := func(i int) config {
		return config{seed: o.seed*subSeeds + int64(i%subSeeds), scale: o.scale, workers: kernelWorkers}
	}
	wr := &workloadReport{w: w, values: map[string]float64{}, spread: map[string][3]float64{}}

	var rawSetups, setups []float64
	window := time.Duration(o.seconds) * time.Second
	minReps := subSeeds + 1
	if o.trace != 0 {
		// The profiled rep and the ladder take the other half.
		window /= 2
		minReps = subSeeds
	}
	runtime.GC()
	ref := hostRef()
	for start := time.Now(); len(wr.reps) < minReps || time.Since(start) < window; {
		runtime.GC()
		block := make([]float64, setupBlock)
		for i := range block {
			t := time.Now()
			if _, err := w.setup(cfgFor(len(wr.reps))); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			block[i] = time.Since(t).Seconds()
		}

		spans := ""
		if len(wr.reps) < subSeeds && o.spans != "" {
			spans = filepath.Join(o.spans, fmt.Sprintf("%s.%d.jsonl", w.name, len(wr.reps)))
		}
		r, err := runRep(w, cfgFor(len(wr.reps)), false, spans)
		if err != nil {
			return nil, err
		}
		// The set-up block and the rep both ran between two reference runs.
		runtime.GC()
		next := hostRef()
		r.refMs, ref = (ref+next)/2, next
		for _, s := range block {
			rawSetups = append(rawSetups, s)
			setups = append(setups, s*refMixMs/r.refMs)
		}
		wr.reps = append(wr.reps, r)
	}
	all := wr.reps
	if o.trace != 0 {
		var err error
		if wr.prof, err = runRep(w, cfgFor(0), true, ""); err != nil {
			return nil, err
		}
		// Appended last, the profiled rep is checked against sub-seed 0.
		all = append(all[:len(all):len(all)], wr.prof)
	}
	for i, r := range all {
		first := wr.reps[i%subSeeds]
		if r == wr.prof {
			first = wr.reps[0]
		}
		if r.fp != first.fp {
			return nil, fmt.Errorf("determinism: rep %d fingerprint %s, first run of its sub-seed %s", i, r.fp, first.fp)
		}
		wr.attempted += r.ops
		wr.failed += r.failed
	}
	fp := fnv.New64a()
	for _, r := range wr.reps[:subSeeds] {
		io.WriteString(fp, r.fp)
		wr.samples += r.samples
		for k, v := range r.virtual {
			wr.values[k] += v / subSeeds
		}
	}
	wr.fp = fmt.Sprintf("%016x", fp.Sum64())

	spread := func(name string, xs []float64) {
		med, q1, q3 := quartiles(xs)
		wr.values[name] = med
		wr.spread[name] = [3]float64{med, q1, q3}
	}
	host := func(name string, f func(r *rep) float64) {
		xs := make([]float64, len(wr.reps))
		for i, r := range wr.reps {
			xs[i] = f(r)
		}
		spread(name, xs)
	}
	spread("setup_s", setups)
	spread("host.raw_setup_s", rawSetups)
	host("host.raw_ops_per_s", func(r *rep) float64 { return float64(r.ops) / r.wall.Seconds() })
	host("host_ops_per_s", func(r *rep) float64 { return float64(r.ops) / r.wall.Seconds() * r.refMs / refMixMs })
	host("host.ref_mix_ms", func(r *rep) float64 { return r.refMs })
	host("host_peak_heap_mb", func(r *rep) float64 { return r.peakLive / mib })
	host("go.alloc_bytes_per_op", func(r *rep) float64 { return r.allocB / float64(r.ops) })
	host("go.mallocs_per_op", func(r *rep) float64 { return r.mallocs / float64(r.ops) })
	host("go.gc_cycles", func(r *rep) float64 { return r.gcCycles })
	host("sim.host_ns_per_event", func(r *rep) float64 { return float64(r.wall.Nanoseconds()) / float64(r.events) })
	if p := wr.prof; p != nil {
		for _, l := range layers {
			wr.values["host_ns_per_op."+l] = float64(p.cpuNanos[l]) / float64(p.ops)
		}
		walls := make([]float64, len(wr.reps))
		for i, r := range wr.reps {
			walls[i] = r.wall.Seconds()
		}
		medWall, _, _ := quartiles(walls)
		wr.values["bench.profile_overhead"] = p.wall.Seconds() / medWall
	}
	return wr, nil
}

// runRep sets the workload up, then runs its measured phase with the live
// heap sampled and, when profile is set, the CPU profiled. spansPath, if
// set, receives the rep's spans.
func runRep(w *workload, cfg config, profile bool, spansPath string) (*rep, error) {
	runtime.GC()
	t := time.Now()
	measure, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r := &rep{setup: time.Since(t)}
	runtime.GC()

	counters := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	read := func() [3]uint64 {
		rtmetrics.Read(counters)
		return [3]uint64{counters[0].Value.Uint64(), counters[1].Value.Uint64(), counters[2].Value.Uint64()}
	}
	before := read()
	stop, peak := make(chan struct{}), make(chan uint64)
	go sampleLiveHeap(stop, peak)
	var prof bytes.Buffer
	if profile {
		// 500 Hz, five times pprof's default, so a rep of about a second
		// still gives the busier layers hundreds of samples.
		// StartCPUProfile notes on stderr that the rate was already set.
		runtime.SetCPUProfileRate(500)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			close(stop)
			<-peak
			return nil, err
		}
	}
	t = time.Now()
	out, err := measure()
	r.wall = time.Since(t)
	if profile {
		pprof.StopCPUProfile()
	}
	close(stop)
	after := read()
	// The sampler sees the live heap only as of each GC, floating garbage
	// included; a final GC with the simulated system still reachable adds
	// the end state, which is the peak of a heap that grows all run.
	runtime.GC()
	r.peakLive = float64(max(<-peak, liveHeap()))
	runtime.KeepAlive(measure)
	r.allocB = float64(after[0] - before[0])
	r.mallocs = float64(after[1] - before[1])
	r.gcCycles = float64(after[2] - before[2])
	if err != nil {
		return nil, err
	}

	if r.failed, err = out.check(); err != nil {
		return nil, fmt.Errorf("invariant: %w", err)
	}
	r.ops, r.events, r.fp = len(out.spans), out.events, out.fingerprint()
	r.virtual, r.samples = out.virtualMetrics(w.primary)
	if profile {
		p, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		r.cpuNanos = p.attribute()
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, out.spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// liveHeap is the heap the last GC found live.
func liveHeap() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleLiveHeap polls the live heap until stop closes, then sends the
// peak it saw.
func sampleLiveHeap(stop <-chan struct{}, peak chan<- uint64) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var most uint64
	for {
		most = max(most, liveHeap())
		select {
		case <-stop:
			peak <- most
			return
		case <-tick.C:
		}
	}
}

// runLadder runs and prints every rung at the given -test.benchtime.
func runLadder(out io.Writer, benchtime string) (map[string]float64, error) {
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, fmt.Errorf("ladder benchtime: %w", err)
	}
	fmt.Fprintf(out, "== ladder (benchtime %s per rung)\n", benchtime)
	res := map[string]float64{}
	for _, r := range ladder {
		b := testing.Benchmark(r.fn)
		if b.N == 0 {
			return nil, fmt.Errorf("ladder rung %s failed", r.name)
		}
		ns, allocs := float64(b.T.Nanoseconds())/float64(b.N), float64(b.MemAllocs)/float64(b.N)
		res["ladder."+r.name+".ns_per_op"] = ns
		res["ladder."+r.name+".allocs_per_op"] = allocs
		fmt.Fprintf(out, "  %-40s %14.6g ns/op %10.4g allocs/op\n", "ladder."+r.name, ns, allocs)
	}
	return res, nil
}
