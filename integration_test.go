package repro

// Integration tests exercise the full stack — hardware model, per-PU
// operating systems, XPU-Shim, vectorized sandboxes, the Molecule runtime,
// and the baselines — together, including failure injection and concurrent
// load.

import (
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/molecule"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// withRuntime builds a Molecule runtime on the given machine config and
// runs body as the driver process, asserting the simulation drains cleanly.
func withRuntime(t *testing.T, cfg hw.Config, opts molecule.Options, body func(p *sim.Proc, rt *molecule.Runtime)) {
	t.Helper()
	env := sim.NewEnv()
	m := hw.Build(env, cfg)
	env.Spawn("driver", func(p *sim.Proc) {
		rt, err := molecule.New(p, m, workloads.NewRegistry(), opts)
		if err != nil {
			t.Fatal(err)
		}
		body(p, rt)
	})
	env.Run()
	if env.LiveProcs() != 0 {
		t.Fatalf("simulation left %d processes blocked", env.LiveProcs())
	}
}

// TestFullHeterogeneousMachineUnderLoad drives a Zipf/Poisson request
// stream against a machine with every PU class while FPGA and GPU
// invocations interleave, and checks global accounting stays consistent.
func TestFullHeterogeneousMachineUnderLoad(t *testing.T) {
	withRuntime(t, hw.Config{DPUs: 2, FPGAs: 1, GPUs: 1}, molecule.DefaultOptions(),
		func(p *sim.Proc, rt *molecule.Runtime) {
			general := []string{"matmul", "pyaes", "image-resize", "chameleon"}
			for _, fn := range general {
				if err := rt.Deploy(p, fn,
					molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
					t.Fatal(err)
				}
			}
			if err := rt.Deploy(p, "mscale",
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.FPGA)); err != nil {
				t.Fatal(err)
			}
			if err := rt.Deploy(p, "vmult",
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.GPU)); err != nil {
				t.Fatal(err)
			}

			stats, err := loadgen.Run(p, rt, loadgen.Config{
				Seed: 1, Functions: general, ZipfS: 1.3,
				RatePerSec: 80, Duration: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Errors != 0 {
				t.Errorf("%d request errors under load", stats.Errors)
			}
			// Accelerator invocations interleaved with the stream.
			for i := 0; i < 5; i++ {
				if _, err := rt.Invoke(p, "mscale", molecule.DefaultInvokeOptions()); err != nil {
					t.Fatal(err)
				}
				if _, err := rt.Invoke(p, "vmult", molecule.DefaultInvokeOptions()); err != nil {
					t.Fatal(err)
				}
			}
			if got := rt.Billing().Count(); got != stats.Requests+10 {
				t.Errorf("billing entries = %d, want %d", got, stats.Requests+10)
			}
			if rt.LiveInstances() > rt.Capacity() {
				t.Errorf("live instances %d exceed capacity %d", rt.LiveInstances(), rt.Capacity())
			}
		})
}

// TestKilledSandboxNotServedWarm injects a failure: a cached warm instance
// is killed out-of-band; the next request must not be routed to the corpse.
func TestKilledSandboxNotServedWarm(t *testing.T) {
	withRuntime(t, hw.Config{}, molecule.DefaultOptions(), func(p *sim.Proc, rt *molecule.Runtime) {
		if err := rt.Deploy(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Invoke(p, "matmul", molecule.DefaultInvokeOptions()); err != nil {
			t.Fatal(err)
		}
		// Kill every running container sandbox behind Molecule's back.
		cr := rt.ContainerRuntimeOn(0)
		for _, st := range cr.State(nil) {
			if st.State == sandbox.StateRunning {
				if err := cr.Kill(p, []string{st.ID}, 9); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := rt.Invoke(p, "matmul", molecule.DefaultInvokeOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cold {
			t.Error("request served by a killed sandbox")
		}
	})
}

// TestConcurrentChainsShareWarmPools runs several chains at once over the
// same functions; every chain must complete and later rounds must be warm.
func TestConcurrentChainsShareWarmPools(t *testing.T) {
	withRuntime(t, hw.Config{DPUs: 1}, molecule.DefaultOptions(), func(p *sim.Proc, rt *molecule.Runtime) {
		chain := workloads.MapReduceChain()
		for _, fn := range chain {
			if err := rt.Deploy(p, fn,
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
				t.Fatal(err)
			}
		}
		env := p.Env()
		wg := sim.NewWaitGroup(env)
		results := make([]molecule.ChainResult, 6)
		for i := 0; i < 6; i++ {
			i := i
			wg.Add(1)
			env.Spawn("chain", func(cp *sim.Proc) {
				defer wg.Done()
				res, err := rt.InvokeChain(cp, chain, molecule.ChainOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = res
			})
		}
		wg.Wait(p)
		for i, res := range results {
			if res.Total <= 0 {
				t.Errorf("chain %d produced no result", i)
			}
		}
		// A final run over the now-populated pools must be fully warm.
		res, err := rt.InvokeChain(p, chain, molecule.ChainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.ColdStarts != 0 {
			t.Errorf("final chain still cold-started %d instances", res.ColdStarts)
		}
	})
}

// TestMoleculeBeatsBaselineEverywhere is the paper's bottom line as one
// assertion: on the same machine and workloads, Molecule's cold start,
// warm chains, and FPGA offload all beat Molecule-homo.
func TestMoleculeBeatsBaselineEverywhere(t *testing.T) {
	withRuntime(t, hw.Config{DPUs: 1, FPGAs: 1}, molecule.DefaultOptions(),
		func(p *sim.Proc, rt *molecule.Runtime) {
			h := baseline.NewHomo(p.Env(), rt.Machine, rt.Registry)
			if err := rt.Deploy(p, "image-processing"); err != nil {
				t.Fatal(err)
			}
			rt.ContainerRuntimeOn(0).EnsureTemplate(p, "python")

			// Cold start.
			mres, err := rt.Invoke(p, "image-processing", molecule.InvokeOptions{PU: -1, ForceCold: true})
			if err != nil {
				t.Fatal(err)
			}
			bres, err := h.Invoke(p, "image-processing", 0, workloads.Arg{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if mres.Startup >= bres.Startup {
				t.Errorf("Molecule cold start %v not below baseline %v", mres.Startup, bres.Startup)
			}

			// Warm chain.
			chain := workloads.AlexaChain()
			for _, fn := range chain {
				if err := rt.Deploy(p, fn); err != nil {
					t.Fatal(err)
				}
			}
			rt.InvokeChain(p, chain, molecule.ChainOptions{})
			h.InvokeChain(p, chain, nil, workloads.Arg{})
			mc, _ := rt.InvokeChain(p, chain, molecule.ChainOptions{})
			bc, _ := h.InvokeChain(p, chain, nil, workloads.Arg{})
			if mc.Total >= bc.Total {
				t.Errorf("Molecule chain %v not below baseline %v", mc.Total, bc.Total)
			}

			// FPGA offload for a large gzip.
			if err := rt.Deploy(p, "gzip-compression",
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.FPGA)); err != nil {
				t.Fatal(err)
			}
			arg := workloads.Arg{Bytes: 50 << 20}
			fres, err := rt.Invoke(p, "gzip-compression", molecule.InvokeOptions{PU: -1, Arg: arg})
			if err != nil {
				t.Fatal(err)
			}
			if fres.Kind != hw.FPGA {
				t.Errorf("large gzip placed on %v, want FPGA", fres.Kind)
			}
			cres, err := h.Invoke(p, "gzip-compression", 0, arg, false)
			if err != nil {
				t.Fatal(err)
			}
			if fres.Exec >= cres.Exec {
				t.Errorf("FPGA gzip %v not below CPU %v", fres.Exec, cres.Exec)
			}
		})
}

// TestDensityEndToEnd fills the whole paper topology (2 DPUs) to its
// capacity with real placements — the Fig 2a experiment as a test.
func TestDensityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("1512 real placements in -short mode")
	}
	withRuntime(t, hw.Config{DPUs: 2}, molecule.DefaultOptions(), func(p *sim.Proc, rt *molecule.Runtime) {
		if err := rt.Deploy(p, "image-processing",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		placed := 0
		for {
			if _, err := rt.AcquireHeld(p, "image-processing", -1); err != nil {
				break
			}
			placed++
		}
		if placed != 1512 {
			t.Errorf("placed %d instances, want 1512", placed)
		}
	})
}
