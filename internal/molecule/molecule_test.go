package molecule

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// run executes body inside a fresh simulation with a Molecule runtime built
// over the given machine config and options.
func run(t *testing.T, cfg hw.Config, opts Options, body func(p *sim.Proc, rt *Runtime)) {
	t.Helper()
	env := sim.NewEnv()
	m := hw.Build(env, cfg)
	reg := workloads.NewRegistry()
	env.Spawn("driver", func(p *sim.Proc) {
		rt, err := New(p, m, reg, opts)
		if err != nil {
			t.Fatal(err)
		}
		body(p, rt)
	})
	env.Run()
	if env.LiveProcs() != 0 {
		t.Fatalf("deadlock: %d processes still blocked after Run", env.LiveProcs())
	}
}

func TestNewBuildsAllNodes(t *testing.T) {
	run(t, hw.Config{DPUs: 2, FPGAs: 1, GPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if rt.ContainerRuntimeOn(0) == nil {
			t.Error("host has no container runtime")
		}
		for _, pu := range rt.Machine.PUsOfKind(hw.DPU) {
			if rt.ContainerRuntimeOn(pu.ID) == nil {
				t.Errorf("DPU %d has no container runtime", pu.ID)
			}
			if rt.Node(pu.ID).execXPID.PU != pu.ID {
				t.Errorf("DPU %d executor not xSpawned there", pu.ID)
			}
		}
		fpga := rt.Machine.PUsOfKind(hw.FPGA)[0]
		if rt.RunFOn(fpga.ID) == nil {
			t.Error("FPGA has no runf")
		}
		if !rt.Shim.Node(fpga.ID).Virtual() {
			t.Error("FPGA shim node not virtual")
		}
		gpu := rt.Machine.PUsOfKind(hw.GPU)[0]
		if rt.nodes[gpu.ID].rung == nil {
			t.Error("GPU has no rung")
		}
	})
}

func TestInvokeColdThenWarm(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "image-processing"); err != nil {
			t.Fatal(err)
		}
		cold, err := rt.Invoke(p, "image-processing", DefaultInvokeOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !cold.Cold {
			t.Error("first invoke not cold")
		}
		warm, err := rt.Invoke(p, "image-processing", DefaultInvokeOptions())
		if err != nil {
			t.Fatal(err)
		}
		if warm.Cold {
			t.Error("second invoke not warm")
		}
		if warm.Total >= cold.Total {
			t.Errorf("warm (%v) not faster than cold (%v)", warm.Total, cold.Total)
		}
		if warm.Startup != 0 {
			t.Errorf("warm startup = %v, want 0", warm.Startup)
		}
	})
}

func TestInvokeUndeployed(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if _, err := rt.Invoke(p, "image-processing", DefaultInvokeOptions()); err == nil {
			t.Error("invoke of undeployed function succeeded")
		}
		if err := rt.Deploy(p, "no-such-function"); err == nil {
			t.Error("deploy of unknown function succeeded")
		}
	})
}

// TestColdStartCforkVsPlainBoot verifies the Molecule-vs-baseline cold
// start gap on which Fig 9/10/14 rest: cfork cold start ≈ 30ms (without
// cpuset patch) vs plain boot + dependency import ≈ 184ms for
// image-processing.
func TestColdStartCforkVsPlainBoot(t *testing.T) {
	coldTotal := func(opts Options) time.Duration {
		var total time.Duration
		run(t, hw.Config{}, opts, func(p *sim.Proc, rt *Runtime) {
			if err := rt.Deploy(p, "image-processing"); err != nil {
				t.Fatal(err)
			}
			// Warm the template off the measured path.
			if opts.Startup == StartupCfork {
				rt.ContainerRuntimeOn(0).EnsureTemplate(p, "python")
			}
			res, err := rt.Invoke(p, "image-processing", InvokeOptions{PU: -1, ForceCold: true})
			if err != nil {
				t.Fatal(err)
			}
			total = res.Startup
		})
		return total
	}
	forked := coldTotal(DefaultOptions())
	plain := coldTotal(Options{Startup: StartupPlain, KeepWarmPerPU: 64})
	if forked > 35*time.Millisecond || forked < 25*time.Millisecond {
		t.Errorf("cfork cold start = %v, want ~30ms", forked)
	}
	if plain < 150*time.Millisecond {
		t.Errorf("plain cold start = %v, want ~184ms (boot + dep import)", plain)
	}
	if ratio := float64(plain) / float64(forked); ratio < 5 {
		t.Errorf("cfork speedup %.1fx too small", ratio)
	}
}

// TestRemoteColdStartAddsNIPCCost reproduces the Fig 10a/b cfork-XPU
// finding: forking on a neighbor PU adds only ~1-3ms over a local fork.
func TestRemoteColdStartAddsNIPCCost(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "image-processing", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0]
		// Warm templates on both PUs.
		rt.ContainerRuntimeOn(0).EnsureTemplate(p, "python")
		rt.ContainerRuntimeOn(dpu.ID).EnsureTemplate(p, "python")

		local, err := rt.Invoke(p, "image-processing", InvokeOptions{PU: dpu.ID, ForceCold: true})
		if err != nil {
			t.Fatal(err)
		}
		// A second cold start on the DPU, still commanded from the host:
		// compare against what a purely local cfork would cost by replaying
		// on the host and scaling.
		hostCold, err := rt.Invoke(p, "image-processing", InvokeOptions{PU: 0, ForceCold: true})
		if err != nil {
			t.Fatal(err)
		}
		// remote extra = DPU cold - scaled host cold; must be ~1-3ms.
		scaled := time.Duration(float64(hostCold.Startup) * dpu.StartupFactor)
		extra := local.Startup - scaled
		if extra < 500*time.Microsecond || extra > 4*time.Millisecond {
			t.Errorf("remote cfork extra = %v, want ~1-3ms (dpu=%v scaledHost=%v)",
				extra, local.Startup, scaled)
		}
	})
}

// TestFig2aDensity: the host alone supports 1000 concurrent instances; each
// DPU adds 256 (1000 → 1256 → 1512).
func TestFig2aDensity(t *testing.T) {
	for _, tc := range []struct {
		dpus int
		want int
	}{{0, 1000}, {1, 1256}, {2, 1512}} {
		run(t, hw.Config{DPUs: tc.dpus}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
			if got := rt.Capacity(); got != tc.want {
				t.Errorf("%d DPUs: capacity = %d, want %d", tc.dpus, got, tc.want)
			}
		})
	}
}

func TestDensityPlacementOverflowsToDPU(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "image-processing", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		// Shrink capacities so the test is fast.
		rt.Node(0).capacity = 3
		rt.Node(1).capacity = 2
		var held []*instance
		for i := 0; i < 5; i++ {
			inst, err := rt.AcquireHeld(p, "image-processing", -1)
			if err != nil {
				t.Fatalf("placement %d failed: %v", i, err)
			}
			held = append(held, inst)
		}
		if rt.LiveInstances() != 5 {
			t.Errorf("live = %d, want 5", rt.LiveInstances())
		}
		// CPU must be full and DPU hosting the overflow.
		if rt.Node(0).liveCount != 3 || rt.Node(1).liveCount != 2 {
			t.Errorf("placement split = %d/%d, want 3/2",
				rt.Node(0).liveCount, rt.Node(1).liveCount)
		}
		if _, err := rt.AcquireHeld(p, "image-processing", -1); err == nil {
			t.Error("placement beyond machine capacity succeeded")
		}
		for _, inst := range held {
			rt.ReleaseHeld(p, inst)
		}
	})
}

// TestFig2bFPGAMatrixLatency: FPGA matrix functions are 2.15-2.82x faster
// end-to-end than their CPU versions.
func TestFig2bFPGAMatrixLatency(t *testing.T) {
	run(t, hw.Config{FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		for _, fn := range []string{"mscale", "madd", "vmult"} {
			if err := rt.Deploy(p, fn, DefaultProfile(hw.CPU), DefaultProfile(hw.FPGA)); err != nil {
				t.Fatal(err)
			}
		}
		fpga := rt.Machine.PUsOfKind(hw.FPGA)[0]
		for _, fn := range []string{"mscale", "madd", "vmult"} {
			// Warm the CPU instance, then measure steady-state latencies.
			if _, err := rt.Invoke(p, fn, InvokeOptions{PU: 0}); err != nil {
				t.Fatal(err)
			}
			cpuRes, err := rt.Invoke(p, fn, InvokeOptions{PU: 0})
			if err != nil {
				t.Fatal(err)
			}
			fpgaRes, err := rt.Invoke(p, fn, InvokeOptions{PU: fpga.ID})
			if err != nil {
				t.Fatal(err)
			}
			// Compare function latencies: pure handler on CPU vs the FPGA
			// invocation including its data movement (what Fig 2b plots).
			ratio := float64(cpuRes.Handler) / float64(fpgaRes.Handler)
			if ratio < 2.15 || ratio > 2.82 {
				t.Errorf("%s CPU/FPGA = %.2f (cpu=%v fpga=%v), want 2.15-2.82",
					fn, ratio, cpuRes.Handler, fpgaRes.Handler)
			}
		}
	})
}

func TestDeployFPGARequiresImplementation(t *testing.T) {
	run(t, hw.Config{FPGAs: 1, GPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "chameleon", DefaultProfile(hw.FPGA)); err == nil {
			t.Error("FPGA deploy of CPU-only function succeeded")
		}
		if err := rt.Deploy(p, "mscale", DefaultProfile(hw.GPU)); err != nil {
			t.Errorf("GPU deploy of mscale failed: %v", err)
		}
	})
}

func TestDeployFPGAWithoutDevice(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "mscale", DefaultProfile(hw.FPGA)); err == nil {
			t.Error("FPGA deploy without FPGA succeeded")
		}
	})
}

func TestGPUInvoke(t *testing.T) {
	run(t, hw.Config{GPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "vmult", DefaultProfile(hw.CPU), DefaultProfile(hw.GPU)); err != nil {
			t.Fatal(err)
		}
		gpu := rt.Machine.PUsOfKind(hw.GPU)[0]
		res, err := rt.Invoke(p, "vmult", InvokeOptions{PU: gpu.ID})
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != hw.GPU {
			t.Errorf("ran on %v, want GPU", res.Kind)
		}
		cpuWarm, _ := rt.Invoke(p, "vmult", InvokeOptions{PU: 0, ForceCold: true})
		if res.Exec >= cpuWarm.Exec {
			t.Errorf("GPU exec (%v) not faster than CPU (%v)", res.Exec, cpuWarm.Exec)
		}
	})
}

// TestAcceleratorInvokeRunsBody: RunBody returns the function body's output
// from the FPGA and GPU paths too, not only from a CPU or DPU instance.
func TestAcceleratorInvokeRunsBody(t *testing.T) {
	fn, err := workloads.NewRegistry().Get("mscale")
	if err != nil {
		t.Fatal(err)
	}
	want, err := fn.Body(workloads.Arg{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []hw.PUKind{hw.FPGA, hw.GPU} {
		run(t, hw.Config{FPGAs: 1, GPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
			if err := rt.Deploy(p, "mscale", DefaultProfile(kind)); err != nil {
				t.Fatal(err)
			}
			res, err := rt.Invoke(p, "mscale", InvokeOptions{PU: -1, RunBody: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Kind != kind || !reflect.DeepEqual(res.Output, want) {
				t.Errorf("mscale on %v: ran on %v, output %v, want %v", kind, res.Kind, res.Output, want)
			}
		})
	}
}

func TestKeepAliveEviction(t *testing.T) {
	run(t, hw.Config{}, Options{KeepWarmPerPU: 2, PrewarmContainers: 4}, func(p *sim.Proc, rt *Runtime) {
		for _, fn := range []string{"matmul", "pyaes", "chameleon"} {
			if err := rt.Deploy(p, fn); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Invoke(p, fn, DefaultInvokeOptions()); err != nil {
				t.Fatal(err)
			}
		}
		// Cap 2: only two of the three stay warm.
		n := rt.Node(0)
		warm := 0
		for _, wp := range n.pools {
			warm += len(wp.insts)
		}
		if warm != 2 {
			t.Errorf("warm pool = %d, want 2 (eviction)", warm)
		}
		if rt.LiveInstances() != 2 {
			t.Errorf("live = %d, want 2 after eviction", rt.LiveInstances())
		}
	})
}

func TestBillingLedger(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		rt.Deploy(p, "matmul")
		b := rt.Billing()
		if _, ok := b.Last(); ok || b.Count() != 0 {
			t.Fatalf("fresh ledger: Count = %d, Last ok = %v, want 0, false", b.Count(), ok)
		}
		for i := 1; i <= 2; i++ {
			res, err := rt.Invoke(p, "matmul", DefaultInvokeOptions())
			if err != nil {
				t.Fatal(err)
			}
			if b.Count() != i {
				t.Fatalf("Count = %d, want %d", b.Count(), i)
			}
			e, ok := b.Last()
			if !ok || e.Fn != "matmul" || e.Kind != res.Kind || e.Duration != res.Total {
				t.Errorf("Last = %+v, %v; want matmul on %v for %v", e, ok, res.Kind, res.Total)
			}
			if e.BilledMs < 1 {
				t.Error("billing granularity below 1ms")
			}
		}
		if b.Total() <= 0 || b.TotalFor("matmul") != b.Total() {
			t.Error("billing totals wrong")
		}
	})
}

// --- chains ------------------------------------------------------------------

func TestInvokeChainLocalEdges(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		for _, fn := range workloads.AlexaChain() {
			if err := rt.Deploy(p, fn); err != nil {
				t.Fatal(err)
			}
		}
		// Pre-boot instances (the Fig 14e methodology).
		res1, err := rt.InvokeChain(p, workloads.AlexaChain(), ChainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.InvokeChain(p, workloads.AlexaChain(), ChainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.ColdStarts != 0 {
			t.Errorf("second chain had %d cold starts", res.ColdStarts)
		}
		if res1.ColdStarts != 5 {
			t.Errorf("first chain had %d cold starts, want 5", res1.ColdStarts)
		}
		if len(res.EdgeLatency) != 4 {
			t.Fatalf("edges = %d, want 4", len(res.EdgeLatency))
		}
		// Fig 12-a: Molecule's local IPC edges are ~0.2ms.
		for i, el := range res.EdgeLatency {
			if el < 150*time.Microsecond || el > 300*time.Microsecond {
				t.Errorf("edge %d latency = %v, want ~0.2ms", i, el)
			}
		}
		// E2E ≈ execs + edge costs, well under the ~38.6ms baseline.
		if res.Total > 25*time.Millisecond {
			t.Errorf("warm Alexa chain = %v, too slow", res.Total)
		}
		if res.ExecTotal <= 0 || res.ExecTotal >= res.Total {
			t.Errorf("exec total %v vs total %v inconsistent", res.ExecTotal, res.Total)
		}
	})
}

func TestInvokeChainCrossPU(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		chain := workloads.AlexaChain()
		for _, fn := range chain {
			if err := rt.Deploy(p, fn, DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
				t.Fatal(err)
			}
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		// Alternate placement so every inter-function call crosses PUs
		// (the Fig 14e CrossPU setup).
		placement := []hw.PUID{0, dpu, 0, dpu, 0}
		warmup, err := rt.InvokeChain(p, chain, ChainOptions{Placement: placement})
		if err != nil {
			t.Fatal(err)
		}
		_ = warmup
		res, err := rt.InvokeChain(p, chain, ChainOptions{Placement: placement})
		if err != nil {
			t.Fatal(err)
		}
		// nIPC edges cost more than local IPC but stay well under the
		// baseline's ~4.5ms network edges (Fig 12-c/d: 10-13x better).
		for i, el := range res.EdgeLatency {
			if el > time.Millisecond {
				t.Errorf("cross-PU edge %d = %v, want <1ms", i, el)
			}
		}
		// DPU execution slows the chain; total must still be far below the
		// baseline CrossPU (which pays both slow exec and network edges).
		local, err := rt.InvokeChain(p, chain, ChainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total <= local.Total {
			t.Errorf("cross-PU chain (%v) not slower than local (%v)", res.Total, local.Total)
		}
	})
}

// Chain and resident message bodies slice one shared zero array: a body
// must not be appendable into it, and no local or nIPC FIFO path may write
// into it.
func TestPayloadSharesZeroArray(t *testing.T) {
	for _, n := range []int{0, 512, len(zeroPayload), len(zeroPayload) + 1} {
		if b := payload(n); len(b) != n || cap(b) != n {
			t.Fatalf("payload(%d): len %d cap %d, want both %d", n, len(b), cap(b), n)
		}
	}
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		chain := workloads.AlexaChain()
		for _, fn := range chain {
			if err := rt.Deploy(p, fn, DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
				t.Fatal(err)
			}
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		for _, placement := range [][]hw.PUID{nil, {0, dpu, 0, dpu, 0}} {
			if _, err := rt.InvokeChain(p, chain, ChainOptions{Placement: placement}); err != nil {
				t.Fatal(err)
			}
		}
		for _, pu := range []hw.PUID{0, dpu} {
			r, err := rt.StartResident(p, chain[0], pu)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Call(p, workloads.Arg{}); err != nil {
				t.Fatal(err)
			}
			r.Stop(p)
		}
	})
	for i, b := range zeroPayload {
		if b != 0 {
			t.Fatalf("zeroPayload[%d] = %d after chains and residents ran, want 0", i, b)
		}
	}
}

func TestInvokeChainErrors(t *testing.T) {
	run(t, hw.Config{FPGAs: 2}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if _, err := rt.InvokeChain(p, nil, ChainOptions{}); err == nil {
			t.Error("empty chain accepted")
		}
		if _, err := rt.InvokeChain(p, []string{"nope"}, ChainOptions{}); err == nil {
			t.Error("chain with unknown function accepted")
		}
		rt.Deploy(p, "matmul")
		if _, err := rt.InvokeChain(p, []string{"matmul"}, ChainOptions{Placement: []hw.PUID{0, 0}}); err == nil {
			t.Error("mismatched placement accepted")
		}
		// The first FPGA takes vecstage's sandbox, so the second runs none,
		// and an install of gzip-compression (which has an FPGA kernel but
		// is deployed without an FPGA profile) would land there.
		if err := rt.Deploy(p, "vecstage", DefaultProfile(hw.FPGA)); err != nil {
			t.Fatal(err)
		}
		rt.Deploy(p, "gzip-compression")
		fpgas := rt.Machine.PUsOfKind(hw.FPGA)
		if _, err := rt.InvokeChain(p, []string{"gzip-compression"}, ChainOptions{Placement: []hw.PUID{fpgas[1].ID}}); err == nil {
			t.Error("FPGA pin for a function with no FPGA profile accepted")
		}
		if _, err := rt.InvokeChain(p, []string{"vecstage"}, ChainOptions{Placement: []hw.PUID{fpgas[1].ID}}); err == nil {
			t.Error("FPGA pin off the FPGA running the function's sandbox accepted")
		}
	})
}

// fpgaPins pins n chain functions to the machine's first FPGA.
func fpgaPins(rt *Runtime, n int) []hw.PUID {
	pins := make([]hw.PUID, n)
	for i := range pins {
		pins[i] = rt.Machine.PUsOfKind(hw.FPGA)[0].ID
	}
	return pins
}

// TestFig13FPGAChainRetention: the zero-copy (data retention) chain is
// ~1.95x faster end-to-end than the copying chain for 5 stages.
func TestFig13FPGAChainRetention(t *testing.T) {
	run(t, hw.Config{FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "vecstage", DefaultProfile(hw.FPGA)); err != nil {
			t.Fatal(err)
		}
		chain := []string{"vecstage", "vecstage", "vecstage", "vecstage", "vecstage"}
		pins := fpgaPins(rt, len(chain))
		copied, err := rt.InvokeChain(p, chain, ChainOptions{Placement: pins, ForceCopy: true})
		if err != nil {
			t.Fatal(err)
		}
		shm, err := rt.InvokeChain(p, chain, ChainOptions{Placement: pins})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(copied.Total) / float64(shm.Total)
		if ratio < 1.6 || ratio > 2.4 {
			t.Errorf("copy/shm = %.2f (copied=%v shm=%v), want ~1.95", ratio, copied.Total, shm.Total)
		}
		// Single-stage chains must cost the same either way.
		c1, _ := rt.InvokeChain(p, chain[:1], ChainOptions{Placement: pins[:1], ForceCopy: true})
		s1, _ := rt.InvokeChain(p, chain[:1], ChainOptions{Placement: pins[:1]})
		if c1.Total != s1.Total {
			t.Errorf("1-stage chain differs: copy=%v shm=%v", c1.Total, s1.Total)
		}
	})
}

// TestFig14hFPGAChain: matrix-comput pinned to the FPGA beats the same
// chain on the host.
func TestFig14hFPGAChain(t *testing.T) {
	run(t, hw.Config{FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "matrix-comput", DefaultProfile(hw.CPU), DefaultProfile(hw.FPGA)); err != nil {
			t.Fatal(err)
		}
		chain := []string{"matrix-comput"}
		// Warm up the CPU instance.
		rt.InvokeChain(p, chain, ChainOptions{})
		cpu, err := rt.InvokeChain(p, chain, ChainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fpga, err := rt.InvokeChain(p, chain, ChainOptions{Placement: fpgaPins(rt, 1)})
		if err != nil {
			t.Fatal(err)
		}
		// Fig 14h: FPGA ≈ 2.8x lower latency.
		ratio := float64(cpu.Total) / float64(fpga.Total)
		if ratio < 2.2 || ratio > 3.4 {
			t.Errorf("matrix-comput CPU/FPGA = %.2f, want ~2.8", ratio)
		}
	})
}

func TestProfileHelpers(t *testing.T) {
	d := &Deployment{Profiles: []Profile{DefaultProfile(hw.CPU), DefaultProfile(hw.FPGA)}}
	if !d.SupportsKind(hw.CPU) || d.SupportsKind(hw.DPU) {
		t.Error("SupportsKind wrong")
	}
	pr, ok := d.ProfileFor(hw.FPGA)
	if !ok || pr.PricePerMs <= DefaultProfile(hw.CPU).PricePerMs {
		t.Error("FPGA profile not priced above CPU")
	}
	if DefaultProfile(hw.DPU).PricePerMs >= DefaultProfile(hw.CPU).PricePerMs {
		t.Error("DPU must be the cheapest profile (§4.1)")
	}
}

// TestInvocationTrace verifies the milestone trace of a cold-then-warm
// invocation pair.
func TestInvocationTrace(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		rt.Env.EnableTrace()
		if err := rt.Deploy(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		rt.Invoke(p, "matmul", DefaultInvokeOptions())
		rt.Invoke(p, "matmul", DefaultInvokeOptions())
		log := rt.Env.TraceLog()
		var seq []string
		for _, ev := range log {
			seq = append(seq, ev.Event)
		}
		wantOrder := []string{
			"request accepted", "creating sandbox", "sandbox", "cold start complete",
			"done in", "request accepted", "warm hit", "done in",
		}
		i := 0
		for _, ev := range seq {
			if i < len(wantOrder) && strings.Contains(ev, wantOrder[i]) {
				i++
			}
		}
		if i != len(wantOrder) {
			t.Errorf("trace missing milestone %q; got:\n%s", wantOrder[i], strings.Join(seq, "\n"))
		}
	})
}

// TestSnapshotStartupMode verifies the Fig 15 design-space alternative: the
// first cold start pays boot + checkpoint, later cold starts restore in the
// Replayable-class ~45ms — slower than cfork (8-30ms), far faster than a
// plain boot.
func TestSnapshotStartupMode(t *testing.T) {
	opts := Options{Startup: StartupSnapshot, KeepWarmPerPU: 64}
	run(t, hw.Config{}, opts, func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "image-processing"); err != nil {
			t.Fatal(err)
		}
		first, err := rt.Invoke(p, "image-processing", InvokeOptions{PU: -1, ForceCold: true})
		if err != nil {
			t.Fatal(err)
		}
		second, err := rt.Invoke(p, "image-processing", InvokeOptions{PU: -1, ForceCold: true})
		if err != nil {
			t.Fatal(err)
		}
		// First cold start includes the donor boot + checkpoint.
		if first.Startup < 250*time.Millisecond {
			t.Errorf("first snapshot cold start = %v, want donor boot + checkpoint", first.Startup)
		}
		// Subsequent restores are ~45ms.
		if second.Startup < 40*time.Millisecond || second.Startup > 55*time.Millisecond {
			t.Errorf("snapshot restore = %v, want ~45ms", second.Startup)
		}
		// Restored instances share pages with the snapshot image.
		sb := rt.ContainerRuntimeOn(0).Sandbox("s-image-processing-0-2")
		if sb == nil || sb.Inst.Proc.AS.SharedPages() == 0 {
			t.Error("restored instance shares no pages with the snapshot")
		}
	})

	// cfork remains faster than snapshot restore.
	var cforkCold time.Duration
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		rt.Deploy(p, "image-processing")
		rt.ContainerRuntimeOn(0).EnsureTemplate(p, "python")
		res, err := rt.Invoke(p, "image-processing", InvokeOptions{PU: -1, ForceCold: true})
		if err != nil {
			t.Fatal(err)
		}
		cforkCold = res.Startup
	})
	if cforkCold >= 42*time.Millisecond {
		t.Errorf("cfork (%v) not faster than snapshot restore", cforkCold)
	}
}

// TestColdStartModes: Options.Startup alone picks how a cold start makes an
// instance. Each row cold-starts image-processing twice — the first start
// also boots the template, the forest root or the snapshot donor — and
// checks both startups exactly and what built the second instance.
func TestColdStartModes(t *testing.T) {
	with := func(mode StartupMode, zygote bool) Options {
		opts := DefaultOptions()
		opts.Startup, opts.ZygoteTree = mode, zygote
		return opts
	}
	cases := []struct {
		name          string
		opts          Options
		mode          string // opts.Startup.String()
		first, steady time.Duration
		forked        bool   // a cfork made the instance
		forest        bool   // the host runs a zygote forest
		sandbox       string // the second instance's sandbox ID
	}{
		{"cfork", DefaultOptions(), "cfork", 95_399_250, 30_049_250, true, false, "c-image-processing-0-2"},
		{"generic-cfork", with(StartupGenericCfork, false), "generic-cfork", 191_399_250, 126_049_250, true, false, "c-image-processing-0-2"},
		{"plain", Options{Startup: StartupPlain, KeepWarmPerPU: 64}, "plain", 181_550_000, 181_550_000, false, false, "c-image-processing-0-2"},
		{"snapshot", Options{Startup: StartupSnapshot, KeepWarmPerPU: 64}, "snapshot", 356_400_000, 44_850_000, false, false, "s-image-processing-0-2"},
		{"cfork+zygote", with(StartupCfork, true), "cfork", 190_899_250, 125_249_250, true, true, "c-image-processing-0-2"},
		// ZygoteTree applies only under StartupCfork.
		{"generic-cfork+zygote", with(StartupGenericCfork, true), "generic-cfork", 191_399_250, 126_049_250, true, false, "c-image-processing-0-2"},
		// The zero mode forks even without DefaultOptions. With no
		// prepared-container pool, each start also creates its container
		// (params.ContainerCreateTime).
		{"cfork-literal", Options{Startup: StartupCfork, KeepWarmPerPU: 64}, "cfork", 112_599_250, 47_249_250, true, false, "c-image-processing-0-2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.opts.Startup.String(); got != tc.mode {
				t.Errorf("String() = %q, want %q", got, tc.mode)
			}
			run(t, hw.Config{}, tc.opts, func(p *sim.Proc, rt *Runtime) {
				if err := rt.Deploy(p, "image-processing"); err != nil {
					t.Fatal(err)
				}
				var got [2]time.Duration
				for i := range got {
					res, err := rt.Invoke(p, "image-processing", InvokeOptions{PU: -1, ForceCold: true})
					if err != nil {
						t.Fatal(err)
					}
					got[i] = res.Startup
				}
				if want := [2]time.Duration{tc.first, tc.steady}; got != want {
					t.Errorf("startups %v, want %v", got, want)
				}
				wp := poolNamed(rt.nodes[rt.hostID], "image-processing")
				inst := wp.insts[len(wp.insts)-1]
				if inst.sandboxID != tc.sandbox || inst.sb.Forked != tc.forked || inst.sb.ZygoteDepth != 0 {
					t.Errorf("instance %s forked=%v depth %d, want %s forked=%v depth 0",
						inst.sandboxID, inst.sb.Forked, inst.sb.ZygoteDepth, tc.sandbox, tc.forked)
				}
				if forest := rt.ContainerRuntimeOn(rt.hostID).Forest(lang.Python) != nil; forest != tc.forest {
					t.Errorf("zygote forest = %v, want %v", forest, tc.forest)
				}
			})
		})
	}
	t.Run("unknown", func(t *testing.T) {
		if got := StartupMode(9).String(); got != "StartupMode(9)" {
			t.Errorf("String() = %q", got)
		}
		env := sim.NewEnv()
		m := hw.Build(env, hw.Config{})
		env.Spawn("driver", func(p *sim.Proc) {
			if _, err := New(p, m, workloads.NewRegistry(), Options{Startup: 9}); err == nil {
				t.Error("New accepted an unknown startup mode")
			}
		})
		env.Run()
	})
}

// TestExecutorCrashAndRespawn injects an executor failure on the DPU: warm
// instances there are lost, but the next request transparently respawns the
// executor and cold-starts a fresh instance.
func TestExecutorCrashAndRespawn(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "matmul", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		if _, err := rt.Invoke(p, "matmul", InvokeOptions{PU: dpu}); err != nil {
			t.Fatal(err)
		}
		if err := rt.KillExecutor(p, dpu); err != nil {
			t.Fatal(err)
		}
		if rt.ExecutorAlive(dpu) {
			t.Error("executor alive after kill")
		}
		if rt.Node(dpu).liveCount != 0 {
			t.Error("warm instances survived the executor crash")
		}
		res, err := rt.Invoke(p, "matmul", InvokeOptions{PU: dpu})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cold {
			t.Error("post-crash request served warm from a dead executor")
		}
		if !rt.ExecutorAlive(dpu) {
			t.Error("executor not respawned")
		}
		if rt.Node(dpu).execXPID.PU != dpu {
			t.Error("respawned executor not on the DPU")
		}
	})
}

func TestKillExecutorValidation(t *testing.T) {
	run(t, hw.Config{FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.KillExecutor(p, 0); err == nil {
			t.Error("killed the control-plane executor")
		}
		fpga := rt.Machine.PUsOfKind(hw.FPGA)[0].ID
		if err := rt.KillExecutor(p, fpga); err == nil {
			t.Error("killed a nonexistent accelerator executor")
		}
		if err := rt.KillExecutor(p, 99); err == nil {
			t.Error("killed an unknown PU's executor")
		}
	})
}

// TestKeepAliveGreedyDualPrefersExpensive: with one warm slot, the function
// that is costlier to recreate wins the cache over an equally-popular cheap
// one.
func TestKeepAliveGreedyDualPrefersExpensive(t *testing.T) {
	opts := Options{Startup: StartupPlain, KeepWarmPerPU: 1, PrewarmContainers: 4}
	run(t, hw.Config{}, opts, func(p *sim.Proc, rt *Runtime) {
		// linpack's dependency import (280ms) dwarfs pyaes's (59ms).
		for _, fn := range []string{"linpack", "pyaes"} {
			if err := rt.Deploy(p, fn); err != nil {
				t.Fatal(err)
			}
		}
		// Alternate invocations so frequencies match; the expensive one
		// should end up owning the single warm slot.
		for i := 0; i < 4; i++ {
			if _, err := rt.Invoke(p, "linpack", DefaultInvokeOptions()); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Invoke(p, "pyaes", DefaultInvokeOptions()); err != nil {
				t.Fatal(err)
			}
		}
		if rt.cache.Priority("linpack") <= rt.cache.Priority("pyaes") {
			t.Errorf("expensive function priority (%.1f) not above cheap one (%.1f)",
				rt.cache.Priority("linpack"), rt.cache.Priority("pyaes"))
		}
	})
}

// TestFPGAImageEvictionUnderBankPressure: a device caches at most
// 3x banks instances (bank sharing); deploying beyond that evicts the
// least-valuable function, and invoking the evicted one reprograms the
// image (cold miss).
func TestFPGAImageEvictionUnderBankPressure(t *testing.T) {
	run(t, hw.Config{FPGAs: 1, FPGABanks: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		fpga := rt.Machine.PUsOfKind(hw.FPGA)[0]
		fns := []string{"mscale", "madd", "vmult", "matrix-comput"}
		for _, fn := range fns {
			if err := rt.Deploy(p, fn, DefaultProfile(hw.FPGA)); err != nil {
				t.Fatal(err)
			}
		}
		rf := rt.RunFOn(fpga.ID)
		cached := 0
		for _, fn := range fns {
			if rf.Cached(fn) {
				cached++
			}
		}
		if cached != 3 {
			t.Errorf("cached = %d, want 3 (one bank, three sharers)", cached)
		}
		// Find the evicted function and invoke it: must still work via a
		// reprogram (cold image miss), evicting something else.
		var evicted string
		for _, fn := range fns {
			if !rf.Cached(fn) {
				evicted = fn
			}
		}
		if evicted == "" {
			t.Fatal("nothing evicted")
		}
		res, err := rt.Invoke(p, evicted, InvokeOptions{PU: fpga.ID})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cold {
			t.Error("evicted function served warm")
		}
		if !rf.Cached(evicted) {
			t.Error("reprogram did not cache the requested function")
		}
	})
}

func TestNewRequiresHostCPU(t *testing.T) {
	env := sim.NewEnv()
	m := hw.NewMachine(env)
	m.AddPU(&hw.PU{Kind: hw.DPU, Name: "lonely-dpu", Speed: 1})
	env.Spawn("x", func(p *sim.Proc) {
		if _, err := New(p, m, workloads.NewRegistry(), DefaultOptions()); err == nil {
			t.Error("runtime built on a machine without a host CPU")
		}
	})
	env.Run()
}

func TestChainPlacementRejectsAccelerators(t *testing.T) {
	run(t, hw.Config{FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		fpga := rt.Machine.PUsOfKind(hw.FPGA)[0].ID
		if _, err := rt.InvokeChain(p, []string{"matmul"}, ChainOptions{Placement: []hw.PUID{fpga}}); err == nil {
			t.Error("container chain placed on an FPGA")
		}
	})
}

func TestSnapshotObservability(t *testing.T) {
	run(t, hw.Config{DPUs: 1, FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		rt.Deploy(p, "matmul")
		rt.Deploy(p, "mscale", DefaultProfile(hw.FPGA))
		rt.Invoke(p, "matmul", DefaultInvokeOptions())
		snap := rt.Snapshot()
		if len(snap) != 3 {
			t.Fatalf("snapshot nodes = %d, want 3", len(snap))
		}
		host := snap[0]
		if host.Kind != hw.CPU || host.Live != 1 || host.WarmPerFunc["matmul"] != 1 {
			t.Errorf("host snapshot wrong: %+v", host)
		}
		if !host.ExecutorAlive || !snap[1].ExecutorAlive {
			t.Error("executors not alive in snapshot")
		}
		fpga := snap[2]
		if fpga.Kind != hw.FPGA || len(fpga.FPGAImage) != 1 || fpga.FPGAImage[0] != "mscale" {
			t.Errorf("fpga snapshot wrong: %+v", fpga)
		}
		if fpga.ExecutorAlive {
			t.Error("accelerator reported an executor")
		}
	})
}

func TestBillingReport(t *testing.T) {
	run(t, hw.Config{FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		rt.Deploy(p, "matmul")
		rt.Deploy(p, "mscale", DefaultProfile(hw.FPGA))
		rt.Invoke(p, "matmul", DefaultInvokeOptions())
		rt.Invoke(p, "matmul", DefaultInvokeOptions())
		rt.Invoke(p, "mscale", DefaultInvokeOptions())
		rep := rt.Billing().Report()
		if len(rep.Rows) != 3 { // matmul/CPU, mscale/FPGA, TOTAL
			t.Fatalf("report rows = %d: %v", len(rep.Rows), rep.Rows)
		}
		if rep.Rows[0][0] != "matmul" || rep.Rows[0][2] != "2" {
			t.Errorf("matmul row wrong: %v", rep.Rows[0])
		}
		if rep.Rows[1][0] != "mscale" || rep.Rows[1][1] != "FPGA" {
			t.Errorf("mscale row wrong: %v", rep.Rows[1])
		}
		if rep.Rows[2][0] != "TOTAL" {
			t.Errorf("total row wrong: %v", rep.Rows[2])
		}
	})
}

func TestUndeploy(t *testing.T) {
	run(t, hw.Config{FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		if err := rt.Deploy(p, "mscale", DefaultProfile(hw.FPGA)); err != nil {
			t.Fatal(err)
		}
		rt.Invoke(p, "matmul", DefaultInvokeOptions())
		rt.Invoke(p, "mscale", DefaultInvokeOptions())
		if err := rt.Undeploy(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		if rt.LiveInstances() != 0 {
			t.Errorf("live = %d after undeploy, want 0", rt.LiveInstances())
		}
		if _, err := rt.Invoke(p, "matmul", DefaultInvokeOptions()); err == nil {
			t.Error("undeployed function still invocable")
		}
		// FPGA undeploy: the sandbox is marked deleted (fabric untouched
		// until the next create).
		if err := rt.Undeploy(p, "mscale"); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Invoke(p, "mscale", DefaultInvokeOptions()); err == nil {
			t.Error("undeployed FPGA function still invocable")
		}
		if err := rt.Undeploy(p, "matmul"); err == nil {
			t.Error("double undeploy accepted")
		}
	})
}

func TestUtilizationAccounting(t *testing.T) {
	run(t, hw.Config{FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		rt.Deploy(p, "pyaes")
		if rt.Utilization(0) != 0 {
			t.Error("utilization nonzero before any work")
		}
		for i := 0; i < 3; i++ {
			rt.Invoke(p, "pyaes", DefaultInvokeOptions())
		}
		u := rt.Utilization(0)
		if u <= 0 || u > 1 {
			t.Errorf("utilization = %v, want (0,1]", u)
		}
		snap := rt.Snapshot()
		// 3 x ~19.5ms execs accumulated.
		if snap[0].Busy < 55*time.Millisecond || snap[0].Busy > 70*time.Millisecond {
			t.Errorf("busy = %v, want ~60ms", snap[0].Busy)
		}
		if rt.Utilization(99) != 0 {
			t.Error("unknown PU utilization nonzero")
		}
	})
}

// TestDedicatedVsGenericCfork: cfork from a generic template still pays
// the dependency import; dedicated templates keep it off the critical path
// (§4.2).
func TestDedicatedVsGenericCfork(t *testing.T) {
	startup := func(mode StartupMode) time.Duration {
		opts := DefaultOptions()
		opts.Startup = mode
		var d time.Duration
		run(t, hw.Config{}, opts, func(p *sim.Proc, rt *Runtime) {
			if err := rt.Deploy(p, "linpack"); err != nil { // 280ms deps
				t.Fatal(err)
			}
			rt.ContainerRuntimeOn(0).EnsureTemplate(p, "python")
			res, err := rt.Invoke(p, "linpack", InvokeOptions{PU: -1, ForceCold: true})
			if err != nil {
				t.Fatal(err)
			}
			d = res.Startup
		})
		return d
	}
	dedicated := startup(StartupCfork)
	generic := startup(StartupGenericCfork)
	if generic-dedicated < 250*time.Millisecond {
		t.Errorf("generic templates (%v) should pay ~280ms deps over dedicated (%v)", generic, dedicated)
	}
}
