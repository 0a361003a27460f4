package molecule

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/xpu"
)

// wiringCounts is every host-side record a chain call's wiring creates,
// apart from the gateway's CAP_Group: an instance's group is created on its
// first cross-PU edge and lives as long as the instance.
type wiringCounts struct {
	hostProcs int // the gateway is a host OS process
	osFIFOs   int // same-PU pipes, over every OS
	shimFIFOs int // cross-PU pipes
	caps      int // capability entries
}

func countWiring(rt *Runtime) wiringCounts {
	c := wiringCounts{
		hostProcs: rt.nodes[rt.hostID].os.NumProcesses(),
		shimFIFOs: rt.Shim.NumFIFOs(),
	}
	for _, n := range rt.orderedNodes() {
		if n.os != nil {
			c.osFIFOs += n.os.NumFIFOs()
		}
	}
	_, c.caps = rt.Shim.NumCaps()
	return c
}

// chainRig boots a host + 2 DPU runtime with the Alexa chain deployed on
// both kinds and returns the cross-PU placement the benchmark's chain
// workload can draw: every hop but the gateway's is an nIPC edge.
func chainRig(t testing.TB, p *sim.Proc, m *hw.Machine) (*Runtime, []string, []hw.PUID) {
	t.Helper()
	rt, err := New(p, m, workloads.NewRegistry(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	chain := workloads.AlexaChain()
	for _, fn := range chain {
		if err := rt.Deploy(p, fn, DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
	}
	dpus := rt.Machine.PUsOfKind(hw.DPU)
	host, dpu0, dpu1 := rt.hostID, dpus[0].ID, dpus[1].ID
	return rt, chain, []hw.PUID{host, dpu0, host, dpu1, dpu0}
}

// alexaDiamond is a DAG over the five Alexa functions with a fan-out and a
// fan-in: 0 → {1, 2} → 3 → 4.
func alexaDiamond(chain []string) DAG {
	return DAG{Nodes: []DAGNode{
		{Fn: chain[0]},
		{Fn: chain[1], Deps: []int{0}},
		{Fn: chain[2], Deps: []int{0}},
		{Fn: chain[3], Deps: []int{1, 2}},
		{Fn: chain[4], Deps: []int{3}},
	}}
}

// TestChainWiringReleased runs local and cross-PU chains and DAGs, a
// resident, a host → DPU → FPGA chain, a DAG whose DPU crashes mid-run, a
// resident whose DPU crashes mid-call, and cross-PU chains whose DPU
// crashes at points through wiring and execution (the
// TestInvokeChainMidChainCrashUnwinds shape), and checks that each leaves
// no gateway process, FIFO or capability behind.
func TestChainWiringReleased(t *testing.T) {
	type body func(t *testing.T, p *sim.Proc, rt *Runtime, chain []string, cross []hw.PUID)
	// releasedOn boots cfg, warms the rig's instances, runs prime when set,
	// and checks that run leaves the counts prime left.
	releasedOn := func(t *testing.T, cfg hw.Config, prime, run body) {
		env := sim.NewEnv()
		m := hw.Build(env, cfg)
		env.Spawn("client", func(p *sim.Proc) {
			rt, chain, cross := chainRig(t, p, m)
			// Warm every instance the bodies use with plain invokes, so the
			// counts before the first chain already include them.
			for i, fn := range chain {
				for _, pu := range []hw.PUID{rt.hostID, cross[i], cross[3]} {
					opts := DefaultInvokeOptions()
					opts.PU = pu
					if _, err := rt.Invoke(p, fn, opts); err != nil {
						t.Fatal(err)
					}
				}
			}
			if prime != nil {
				prime(t, p, rt, chain, cross)
			}
			want := countWiring(rt)
			run(t, p, rt, chain, cross)
			if got := countWiring(rt); got != want {
				t.Errorf("counts %+v, want %+v", got, want)
			}
		})
		env.Run()
		if n := env.LiveProcs(); n != 0 {
			t.Errorf("%d procs still live: %v", n, env.BlockedProcs())
		}
	}
	released := func(t *testing.T, run body) { releasedOn(t, hw.Config{DPUs: 2}, nil, run) }

	t.Run("local", func(t *testing.T) {
		released(t, func(t *testing.T, p *sim.Proc, rt *Runtime, chain []string, _ []hw.PUID) {
			if _, err := rt.InvokeChain(p, chain, ChainOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("cross-PU", func(t *testing.T) {
		released(t, func(t *testing.T, p *sim.Proc, rt *Runtime, chain []string, cross []hw.PUID) {
			// An instance's CAP_Group is created on its first cross-PU edge;
			// the gateway's must not outlive the call.
			var groups []int
			for i := 0; i < 2; i++ {
				if _, err := rt.InvokeChain(p, chain, ChainOptions{Placement: cross}); err != nil {
					t.Fatal(err)
				}
				g, _ := rt.Shim.NumCaps()
				groups = append(groups, g)
			}
			if groups[1] != groups[0] {
				t.Errorf("a warm cross-PU chain left %d CAP_Groups behind", groups[1]-groups[0])
			}
		})
	})
	t.Run("dag/local", func(t *testing.T) {
		released(t, func(t *testing.T, p *sim.Proc, rt *Runtime, chain []string, _ []hw.PUID) {
			if _, err := rt.InvokeDAG(p, alexaDiamond(chain), ChainOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("dag/cross-PU", func(t *testing.T) {
		released(t, func(t *testing.T, p *sim.Proc, rt *Runtime, chain []string, cross []hw.PUID) {
			if _, err := rt.InvokeDAG(p, alexaDiamond(chain), ChainOptions{Placement: cross}); err != nil {
				t.Fatal(err)
			}
		})
	})
	// The FPGA function runs on the driver, between the DPU stage's
	// response and the gateway's: no instance, process or FIFO edge.
	t.Run("fpga", func(t *testing.T) {
		fns := []string{"image-processing", "image-processing", "gzip-compression"}
		var pins []hw.PUID
		var pairExec, fpgaExec time.Duration
		prime := func(t *testing.T, p *sim.Proc, rt *Runtime, _ []string, cross []hw.PUID) {
			if err := rt.Deploy(p, fns[0], DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
				t.Fatal(err)
			}
			if err := rt.Deploy(p, fns[2], DefaultProfile(hw.CPU), DefaultProfile(hw.FPGA)); err != nil {
				t.Fatal(err)
			}
			pins = []hw.PUID{rt.hostID, cross[1], fpgaPins(rt, 1)[0]}
			res, err := rt.InvokeChain(p, fns, ChainOptions{Placement: pins})
			if err != nil {
				t.Fatal(err)
			}
			if res.ColdStarts != 2 {
				t.Errorf("cold chain ColdStarts = %d, want the 2 general-purpose instances", res.ColdStarts)
			}
			pair, err := rt.InvokeChain(p, fns[:2], ChainOptions{Placement: pins[:2]})
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultInvokeOptions()
			opts.PU = pins[2]
			fr, err := rt.Invoke(p, fns[2], opts)
			if err != nil {
				t.Fatal(err)
			}
			pairExec, fpgaExec = pair.ExecTotal, fr.Exec
		}
		releasedOn(t, hw.Config{DPUs: 2, FPGAs: 1}, prime, func(t *testing.T, p *sim.Proc, rt *Runtime, _ []string, _ []hw.PUID) {
			res, err := rt.InvokeChain(p, fns, ChainOptions{Placement: pins})
			if err != nil {
				t.Fatal(err)
			}
			if res.ColdStarts != 0 {
				t.Errorf("warm chain ColdStarts = %d, want 0", res.ColdStarts)
			}
			if len(res.EdgeLatency) != 1 || res.EdgeLatency[0] <= 0 {
				t.Errorf("EdgeLatency = %v, want one entry, for host → DPU", res.EdgeLatency)
			}
			if res.ExecTotal != pairExec+fpgaExec {
				t.Errorf("ExecTotal = %v, want the host → DPU pair's %v + the FPGA run's %v", res.ExecTotal, pairExec, fpgaExec)
			}
		})
	})
	// At 3ms the diamond is wired and both branches out of stage 0 are in
	// flight; the first write into dpu1 fails, and the abort must wake the
	// fan-out stage parked on its two responses.
	t.Run("dag/crash/3ms", func(t *testing.T) {
		released(t, func(t *testing.T, p *sim.Proc, rt *Runtime, chain []string, cross []hw.PUID) {
			pl := faults.NewPlan(rt.Env, 1)
			rt.AttachFaults(pl)
			rt.Env.AfterFunc(3*time.Millisecond, func() { pl.Kill(cross[3]) })
			if _, err := rt.InvokeDAG(p, alexaDiamond(chain), ChainOptions{Placement: cross}); !errors.Is(err, xpu.ErrNodeDown) {
				t.Errorf("InvokeDAG error = %v, want one wrapping xpu.ErrNodeDown", err)
			}
		})
	})
	t.Run("resident", func(t *testing.T) {
		released(t, func(t *testing.T, p *sim.Proc, rt *Runtime, chain []string, cross []hw.PUID) {
			r, err := rt.StartResident(p, chain[0], cross[3])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Call(p, workloads.Arg{}); err != nil {
				t.Fatal(err)
			}
			r.Stop(p)
		})
	})
	// The resident's DPU dies during its first call: that call fails, the
	// next reports why the resident exited, and Stop releases the wiring.
	for _, after := range []time.Duration{100 * time.Microsecond, 3 * time.Millisecond} {
		t.Run("resident/crash/"+after.String(), func(t *testing.T) {
			released(t, func(t *testing.T, p *sim.Proc, rt *Runtime, chain []string, cross []hw.PUID) {
				r, err := rt.StartResident(p, chain[0], cross[3])
				if err != nil {
					t.Fatal(err)
				}
				pl := faults.NewPlan(rt.Env, 1)
				rt.AttachFaults(pl)
				rt.Env.AfterFunc(after, func() { pl.Kill(cross[3]) })
				if _, err := r.Call(p, workloads.Arg{}); !errors.Is(err, xpu.ErrNodeDown) {
					t.Errorf("Call error = %v, want one wrapping xpu.ErrNodeDown", err)
				}
				_, err = r.Call(p, workloads.Arg{})
				if prefix := "molecule: resident " + chain[0] + " exited: "; !errors.Is(err, xpu.ErrNodeDown) || !strings.HasPrefix(fmt.Sprint(err), prefix) {
					t.Errorf("second Call error = %v, want %q wrapping xpu.ErrNodeDown", err, prefix+"…")
				}
				r.Stop(p)
			})
		})
	}
	// Wiring the cross-PU chain takes ~765us of virtual time and dpu1 is
	// first touched by the fourth edge, so the kills up to then cut the
	// wiring short at different XPUcalls; the later ones abort the running
	// chain.
	for _, after := range []time.Duration{
		100 * time.Microsecond, 400 * time.Microsecond, 500 * time.Microsecond,
		600 * time.Microsecond, 700 * time.Microsecond, 3 * time.Millisecond, 30 * time.Millisecond,
	} {
		t.Run("crash/"+after.String(), func(t *testing.T) {
			released(t, func(t *testing.T, p *sim.Proc, rt *Runtime, chain []string, cross []hw.PUID) {
				pl := faults.NewPlan(rt.Env, 1)
				rt.AttachFaults(pl)
				rt.Env.AfterFunc(after, func() { pl.Kill(cross[3]) })
				if _, err := rt.InvokeChain(p, chain, ChainOptions{Placement: cross}); !errors.Is(err, xpu.ErrNodeDown) {
					t.Errorf("InvokeChain error = %v, want one wrapping xpu.ErrNodeDown", err)
				}
			})
		})
	}
}

// TestChainLiveHeapBounded: a chain's host objects are released and reused,
// and the billing ledger keeps aggregates rather than entries, so the live
// heap after 2000 warm chains is within a small constant of the heap after
// 100.
func TestChainLiveHeapBounded(t *testing.T) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 2})
	env.Spawn("client", func(p *sim.Proc) {
		rt, chain, cross := chainRig(t, p, m)
		live := func(chains int) uint64 {
			for i := 0; i < chains; i++ {
				if _, err := rt.InvokeChain(p, chain, ChainOptions{Placement: cross}); err != nil {
					t.Fatal(err)
				}
			}
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(rt) // the ledger and pools must count as live
			return ms.HeapAlloc
		}
		early := live(100)
		late := live(1900)
		const slack = 256 << 10
		if late > early+slack {
			t.Errorf("live heap grew %d KB over 1900 chains (%d -> %d B), want under %d KB",
				(late-early)>>10, early, late, slack>>10)
		}
	})
	env.Run()
}
