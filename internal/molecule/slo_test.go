package molecule

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func deployEverywhere(t *testing.T, p *sim.Proc, rt *Runtime, fn string) {
	t.Helper()
	if err := rt.Deploy(p, fn,
		DefaultProfile(hw.CPU), DefaultProfile(hw.DPU),
		DefaultProfile(hw.FPGA), DefaultProfile(hw.GPU)); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateLatencyOrdering(t *testing.T) {
	run(t, hw.Config{DPUs: 1, FPGAs: 1, GPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployEverywhere(t, p, rt, "vmult")
		// Warm everything so estimates reflect steady state.
		for _, pu := range rt.Machine.PUs() {
			rt.Invoke(p, "vmult", InvokeOptions{PU: pu.ID})
		}
		est := func(k hw.PUKind) time.Duration {
			e, err := rt.EstimateLatency("vmult", k, workloads.Arg{})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		cpu, dpu, fpga, gpu := est(hw.CPU), est(hw.DPU), est(hw.FPGA), est(hw.GPU)
		if !(dpu > cpu && cpu > fpga && fpga > gpu) {
			t.Errorf("estimate ordering wrong: cpu=%v dpu=%v fpga=%v gpu=%v", cpu, dpu, fpga, gpu)
		}
		if _, err := rt.EstimateLatency("vmult", hw.SmartSSD, workloads.Arg{}); err == nil {
			t.Error("estimate for unprofiled kind succeeded")
		}
		if _, err := rt.EstimateLatency("nope", hw.CPU, workloads.Arg{}); err == nil {
			t.Error("estimate for undeployed function succeeded")
		}
	})
}

func TestEstimateColdVsWarm(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		cold, _ := rt.EstimateLatency("matmul", hw.CPU, workloads.Arg{})
		rt.Invoke(p, "matmul", DefaultInvokeOptions())
		warm, _ := rt.EstimateLatency("matmul", hw.CPU, workloads.Arg{})
		if warm >= cold {
			t.Errorf("warm estimate (%v) not below cold (%v)", warm, cold)
		}
	})
}

// TestEstimateColdStartModes: the cold-start estimate follows the startup
// mode and ranks image-processing's modes in the order of their measured
// steady cold starts (TestColdStartModes): cfork 30.05 < snapshot 44.85 <
// generic cfork 126.05 < plain 181.55 ms. The default estimate does not
// move, and the zygote forest prices as cfork.
func TestEstimateColdStartModes(t *testing.T) {
	estimate := func(mode StartupMode, zygote bool) time.Duration {
		opts := DefaultOptions()
		opts.Startup, opts.ZygoteTree = mode, zygote
		var e time.Duration
		run(t, hw.Config{}, opts, func(p *sim.Proc, rt *Runtime) {
			if err := rt.Deploy(p, "image-processing"); err != nil {
				t.Fatal(err)
			}
			var err error
			if e, err = rt.EstimateLatency("image-processing", hw.CPU, workloads.Arg{}); err != nil {
				t.Fatal(err)
			}
		})
		return e
	}
	if got := estimate(StartupCfork, false); got != 42_350_000 {
		t.Errorf("default cold estimate %v, want 42.35ms", got)
	}
	if got, want := estimate(StartupCfork, true), estimate(StartupCfork, false); got != want {
		t.Errorf("zygote cold estimate %v, want cfork's %v", got, want)
	}
	order := []StartupMode{StartupCfork, StartupSnapshot, StartupGenericCfork, StartupPlain}
	for i := 1; i < len(order); i++ {
		lo, hi := estimate(order[i-1], false), estimate(order[i], false)
		if lo >= hi {
			t.Errorf("%v estimate %v not below %v estimate %v", order[i-1], lo, order[i], hi)
		}
	}
}

// TestInvokeWithSLO: a loose deadline picks the cheap DPU; a tight one
// forces the faster (pricier) CPU; an infeasible one falls back to the
// fastest profile.
func TestInvokeWithSLO(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "pyaes",
			DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		// Warm both PUs so estimates are steady-state: CPU ~20ms, DPU ~123ms.
		rt.Invoke(p, "pyaes", InvokeOptions{PU: 0})
		rt.Invoke(p, "pyaes", InvokeOptions{PU: dpu})

		// Rate objective: the low-rate DPU wins under a loose deadline.
		res, kind, est, err := rt.InvokeWithSLO(p, "pyaes",
			SLOOptions{Deadline: 500 * time.Millisecond, Objective: MinimizeRate})
		if err != nil {
			t.Fatal(err)
		}
		if kind != hw.DPU || res.Kind != hw.DPU {
			t.Errorf("loose deadline (rate objective) picked %v (est %v), want cheap DPU", kind, est)
		}

		// Charge objective: the CPU finishes 6.3x sooner at only 1.67x the
		// rate, so its total charge is lower.
		_, kind, _, err = rt.InvokeWithSLO(p, "pyaes",
			SLOOptions{Deadline: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if kind != hw.CPU {
			t.Errorf("loose deadline (charge objective) picked %v, want CPU", kind)
		}

		res, kind, _, err = rt.InvokeWithSLO(p, "pyaes", SLOOptions{Deadline: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if kind != hw.CPU || res.Kind != hw.CPU {
			t.Errorf("tight deadline picked %v, want CPU", kind)
		}

		// Infeasible: best effort = fastest.
		_, kind, _, err = rt.InvokeWithSLO(p, "pyaes", SLOOptions{Deadline: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		if kind != hw.CPU {
			t.Errorf("infeasible deadline picked %v, want fastest (CPU)", kind)
		}

		// No deadline with the rate objective: cheapest rate outright.
		_, kind, _, err = rt.InvokeWithSLO(p, "pyaes", SLOOptions{Objective: MinimizeRate})
		if err != nil {
			t.Fatal(err)
		}
		if kind != hw.DPU {
			t.Errorf("no deadline picked %v, want cheapest rate (DPU)", kind)
		}
	})
}

func TestInvokeWithSLOAcceleratorWins(t *testing.T) {
	run(t, hw.Config{FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "gzip-compression",
			DefaultProfile(hw.CPU), DefaultProfile(hw.FPGA)); err != nil {
			t.Fatal(err)
		}
		// 50MB gzip: CPU needs ~2.2s; only the FPGA meets a 1s deadline.
		arg := workloads.Arg{Bytes: 50 << 20}
		res, kind, est, err := rt.InvokeWithSLO(p, "gzip-compression",
			SLOOptions{Deadline: time.Second, Arg: arg})
		if err != nil {
			t.Fatal(err)
		}
		if kind != hw.FPGA || res.Kind != hw.FPGA {
			t.Errorf("picked %v (est %v), want FPGA for the deadline", kind, est)
		}
	})
}

func TestInvokeWithSLOUndeployed(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if _, _, _, err := rt.InvokeWithSLO(p, "nope", SLOOptions{}); err == nil {
			t.Error("SLO invoke of undeployed function succeeded")
		}
	})
}

// sloDPUs deploys pyaes with CPU and DPU profiles on a runtime whose DPUs
// are PUs 1 and 2, and gives PU 2 its only warm instance.
func sloDPUs(t *testing.T, p *sim.Proc, rt *Runtime) {
	t.Helper()
	if err := rt.Deploy(p, "pyaes", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(p, "pyaes", InvokeOptions{PU: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestInvokeWithSLORunsWherePriced: with the only warm DPU instance on the
// second DPU, the rate objective picks DPU at a warm estimate and runs warm
// on that DPU, in exactly the estimated time (warm estimates are exact with
// jitter off), instead of cold-starting on the first DPU.
func TestInvokeWithSLORunsWherePriced(t *testing.T) {
	run(t, hw.Config{DPUs: 2}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		sloDPUs(t, p, rt)
		res, kind, est, err := rt.InvokeWithSLO(p, "pyaes", SLOOptions{Objective: MinimizeRate})
		if err != nil {
			t.Fatal(err)
		}
		if kind != hw.DPU || res.PU != 2 || res.Cold || res.Total != est {
			t.Errorf("SLO invoke: kind %v on PU %d cold=%v in %v, want a warm DPU 2 run in the estimated %v",
				kind, res.PU, res.Cold, res.Total, est)
		}
	})
}

// TestInvokeWithSLOSkipsCrashedPU: with the first DPU crashed, the SLO
// invoke prices and runs on the live one instead of failing with
// ErrPUDown; with every DPU crashed, the DPU profile has no estimate and
// the CPU serves.
func TestInvokeWithSLOSkipsCrashedPU(t *testing.T) {
	run(t, hw.Config{DPUs: 2}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		sloDPUs(t, p, rt)
		pl := faults.NewPlan(rt.Env, 1)
		rt.AttachFaults(pl)
		pl.Kill(1)
		res, kind, _, err := rt.InvokeWithSLO(p, "pyaes", SLOOptions{Objective: MinimizeRate})
		if err != nil {
			t.Fatal(err)
		}
		if kind != hw.DPU || res.PU != 2 {
			t.Errorf("SLO invoke with PU 1 down ran %v on PU %d, want DPU 2", kind, res.PU)
		}
		pl.Kill(2)
		if _, err := rt.EstimateLatency("pyaes", hw.DPU, workloads.Arg{}); err == nil {
			t.Error("DPU estimate with every DPU down succeeded")
		}
		if res, kind, _, err = rt.InvokeWithSLO(p, "pyaes", SLOOptions{Objective: MinimizeRate}); err != nil || kind != hw.CPU || res.PU != 0 {
			t.Errorf("SLO invoke with every DPU down: %v on PU %d (%v), want the CPU", kind, res.PU, err)
		}
	})
}
