package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/molecule.(*Runtime).Invoke", "repro/internal/sim.(*Env).SpawnAfter.func1"}, "molecule"},
		{[]string{"repro/internal/sim/simbench.Sleep.func1"}, "sim"},
		{[]string{"repro/internal/workloads.bodyAES", "repro/internal/molecule.(*Runtime).Invoke"}, "other"},
		{[]string{"main.(*recorder).Invoke", "repro/internal/loadgen.Drive.func2"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "go.sched"},
		{nil, "go.sched"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestProfileAttribution profiles a busy loop in the sim kernel and checks
// that the decoded profile's samples are all attributed, and that the sim
// layer carries the loop.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(500)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(400 * time.Millisecond); time.Now().Before(deadline); {
		env := sim.NewEnv()
		for _, name := range []string{"a", "b"} {
			env.Spawn(name, func(p *sim.Proc) {
				for i := 0; i < 20000; i++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
		env.Run()
	}
	pprof.StopCPUProfile()

	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range p.nanos {
		total += ns
	}
	if len(p.stacks) < 20 || total <= 0 {
		t.Fatalf("profile has %d samples, %d ns", len(p.stacks), total)
	}
	byLayer := p.attribute()
	var sum int64
	for l, ns := range byLayer {
		known := false
		for _, k := range layers {
			known = known || k == l
		}
		if !known {
			t.Errorf("samples charged to unknown layer %q", l)
		}
		sum += ns
	}
	if sum != total {
		t.Errorf("layers sum to %d ns, profile holds %d ns", sum, total)
	}
	if share := float64(byLayer["sim"]) / float64(total); share < 0.5 {
		t.Errorf("sim share %.2f of a sim-kernel busy loop, want >= 0.5 (by layer: %v)", share, byLayer)
	}
}
