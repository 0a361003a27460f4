package baseline

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func homoRig(cfg hw.Config) (*sim.Env, *Homo) {
	env := sim.NewEnv()
	m := hw.Build(env, cfg)
	return env, NewHomo(env, m, workloads.NewRegistry())
}

func TestHomoColdStartIncludesDeps(t *testing.T) {
	env, h := homoRig(hw.Config{})
	env.Spawn("x", func(p *sim.Proc) {
		res, err := h.Invoke(p, "image-processing", 0, workloads.Arg{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cold {
			t.Error("forced cold start not cold")
		}
		// Baseline cold boot (85.55ms) + dep import (96ms) ≈ 181ms.
		if res.Startup < 170*time.Millisecond || res.Startup > 195*time.Millisecond {
			t.Errorf("cold startup = %v, want ~181ms", res.Startup)
		}
	})
	env.Run()
}

func TestHomoWarmReuse(t *testing.T) {
	env, h := homoRig(hw.Config{})
	env.Spawn("x", func(p *sim.Proc) {
		cold, _ := h.Invoke(p, "matmul", 0, workloads.Arg{}, false)
		warm, err := h.Invoke(p, "matmul", 0, workloads.Arg{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Cold {
			t.Error("second invoke cold")
		}
		if warm.Total >= cold.Total {
			t.Error("warm not faster than cold")
		}
		// Fig 14b: warm latency ≈ exec cost (1.4ms) + small dispatch.
		if warm.Total > 3*time.Millisecond {
			t.Errorf("warm matmul = %v, want ~1.75ms", warm.Total)
		}
	})
	env.Run()
}

func TestHomoDPUSlower(t *testing.T) {
	env, h := homoRig(hw.Config{DPUs: 1})
	env.Spawn("x", func(p *sim.Proc) {
		cpu, err := h.Invoke(p, "image-resize", 0, workloads.Arg{}, true)
		if err != nil {
			t.Fatal(err)
		}
		dpu, err := h.Invoke(p, "image-resize", 1, workloads.Arg{}, true)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(dpu.Total) / float64(cpu.Total)
		// Fig 14c: BF-1 cold end-to-end is 4-7x the CPU's.
		if ratio < 4 || ratio > 7 {
			t.Errorf("DPU/CPU cold = %.2f, want 4-7", ratio)
		}
	})
	env.Run()
}

func TestHomoRejectsUnknownPU(t *testing.T) {
	env, h := homoRig(hw.Config{FPGAs: 1})
	env.Spawn("x", func(p *sim.Proc) {
		fpga := h.Machine.PUsOfKind(hw.FPGA)[0]
		if _, err := h.Invoke(p, "matmul", fpga.ID, workloads.Arg{}, false); err == nil {
			t.Error("homo ran a function on an FPGA — it must not manage accelerators")
		}
		if _, err := h.Invoke(p, "nope", 0, workloads.Arg{}, false); err == nil {
			t.Error("unknown function accepted")
		}
	})
	env.Run()
}

// TestFig14eAlexaBaseline: warmed baseline Alexa chain on the CPU lands
// near the paper's 38.6ms label.
func TestFig14eAlexaBaseline(t *testing.T) {
	env, h := homoRig(hw.Config{})
	env.Spawn("x", func(p *sim.Proc) {
		chain := workloads.AlexaChain()
		if _, err := h.InvokeChain(p, chain, nil, workloads.Arg{}); err != nil {
			t.Fatal(err) // boots instances
		}
		res, err := h.InvokeChain(p, chain, nil, workloads.Arg{})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Total.Seconds() * 1000
		if got < 34 || got > 43 {
			t.Errorf("warm baseline Alexa = %.1fms, want ~38.6ms", got)
		}
		if len(res.EdgeLatency) != 4 {
			t.Fatalf("edges = %d, want 4", len(res.EdgeLatency))
		}
		// Fig 12-a: baseline CPU-CPU edges ~2.8ms.
		for i, el := range res.EdgeLatency {
			ms := el.Seconds() * 1000
			if ms < 2.3 || ms > 3.6 {
				t.Errorf("edge %d = %.2fms, want ~2.8ms", i, ms)
			}
		}
	})
	env.Run()
}

// TestFig14eMapReduceBaseline: warmed baseline MapReduce ≈ 20ms (Flask hops
// are heavier than Express ones).
func TestFig14eMapReduceBaseline(t *testing.T) {
	env, h := homoRig(hw.Config{})
	env.Spawn("x", func(p *sim.Proc) {
		chain := workloads.MapReduceChain()
		h.InvokeChain(p, chain, nil, workloads.Arg{})
		res, err := h.InvokeChain(p, chain, nil, workloads.Arg{})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Total.Seconds() * 1000
		if got < 17 || got > 24 {
			t.Errorf("warm baseline MapReduce = %.1fms, want ~20ms", got)
		}
	})
	env.Run()
}

func TestEdgeLatencyOrdering(t *testing.T) {
	env, h := homoRig(hw.Config{DPUs: 1})
	_ = env
	cpu := h.EdgeLatencyOneWay(0, 0, lang.Node, 512)
	cross := h.EdgeLatencyOneWay(0, 1, lang.Node, 512)
	dpu := h.EdgeLatencyOneWay(1, 1, lang.Node, 512)
	if !(cpu < cross && cross < dpu) {
		t.Errorf("edge ordering violated: cpu=%v cross=%v dpu=%v", cpu, cross, dpu)
	}
	flask := h.EdgeLatencyOneWay(0, 0, lang.Python, 512)
	if flask <= cpu {
		t.Error("Flask edge not heavier than Express edge")
	}
}

func TestChainErrors(t *testing.T) {
	env, h := homoRig(hw.Config{})
	env.Spawn("x", func(p *sim.Proc) {
		if _, err := h.InvokeChain(p, nil, nil, workloads.Arg{}); err == nil {
			t.Error("empty chain accepted")
		}
		if _, err := h.InvokeChain(p, []string{"a", "b"}, []hw.PUID{0}, workloads.Arg{}); err == nil {
			t.Error("mismatched placement accepted")
		}
		if _, err := h.InvokeChain(p, []string{"nope"}, nil, workloads.Arg{}); err == nil {
			t.Error("unknown function accepted")
		}
	})
	env.Run()
}

func TestCommercialModels(t *testing.T) {
	l := AWSLambda()
	w := OpenWhisk()
	if l.Startup <= 0 || w.Comm <= 0 {
		t.Error("commercial latencies not positive")
	}
	if l.Startup >= w.Startup {
		t.Error("expected OpenWhisk cold start above Lambda's")
	}
	if l.Comm <= w.Comm {
		t.Error("expected Lambda step-function comm above OpenWhisk's")
	}
}
