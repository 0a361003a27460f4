package molecule

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/sim"
)

func zygoteOpts() Options {
	opts := DefaultOptions()
	opts.ZygoteTree = true
	return opts
}

// TestZygoteColdStartGetsCheaper: once the fitter has seen the import mix,
// a cold start forks from a package ancestor and pays only the residual —
// strictly cheaper than the first, fully generic cold start.
func TestZygoteColdStartGetsCheaper(t *testing.T) {
	run(t, hw.Config{}, zygoteOpts(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		var first, last time.Duration
		for i := 0; i < 24; i++ {
			res, err := rt.Invoke(p, "matmul", InvokeOptions{PU: -1, ForceCold: true})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = res.Startup
			}
			last = res.Startup
			// Yield through a sleep so the background fit proc can run
			// between cold starts, as it would under real traffic.
			p.Sleep(10 * time.Millisecond)
		}
		if last >= first {
			t.Errorf("cold start never improved: first %v, last %v", first, last)
		}
		d := rt.funcs["matmul"].dep
		saving := d.Pkgs.ImportCost()
		if got := first - last; got < saving {
			t.Errorf("fitted cold start saved %v, want at least the closure import %v", got, saving)
		}
		tree := rt.ContainerRuntimeOn(0).Forest(lang.Python)
		if tree == nil || tree.LiveNodes() == 0 {
			t.Fatal("no specialized template grew")
		}
		if tree.Rounds() == 0 {
			t.Error("fitter never ran")
		}
	})
}

// TestZygoteDisabledMatchesFlatCfork: with the tree off, cold starts cost
// exactly what the flat cfork path costs — the default path is untouched.
func TestZygoteDisabledMatchesFlatCfork(t *testing.T) {
	coldStartup := func(opts Options) time.Duration {
		var d time.Duration
		run(t, hw.Config{}, opts, func(p *sim.Proc, rt *Runtime) {
			if err := rt.Deploy(p, "pyaes"); err != nil {
				t.Fatal(err)
			}
			res, err := rt.Invoke(p, "pyaes", InvokeOptions{PU: -1, ForceCold: true})
			if err != nil {
				t.Fatal(err)
			}
			d = res.Startup
		})
		return d
	}
	flat := coldStartup(DefaultOptions())
	disabled := DefaultOptions()
	disabled.ZygoteTree = false
	if got := coldStartup(disabled); got != flat {
		t.Errorf("zygote-off cold start %v != flat cfork %v", got, flat)
	}
	// A root-only forest (no budget) pays closure + private tail = exactly
	// DepImport, the same bill as a cfork from a *generic* template. That
	// calibration makes the bench's flat arm a true generic-cfork baseline.
	generic := DefaultOptions()
	generic.Startup = StartupGenericCfork
	genericFlat := coldStartup(generic)
	rootOnly := zygoteOpts()
	rootOnly.ZygoteBudgetMB = -1
	if got := coldStartup(rootOnly); got > genericFlat {
		t.Errorf("root-only zygote cold start %v worse than generic flat cfork %v", got, genericFlat)
	}
}

// TestZygoteExecutorCrashResetsForest: killing a PU's executor must retire
// every specialized template on it (their processes died with the
// executor's OS state), leak nothing, and let the forest regrow.
func TestZygoteExecutorCrashResetsForest(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, zygoteOpts(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "matmul", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		for i := 0; i < 24; i++ {
			if _, err := rt.Invoke(p, "matmul", InvokeOptions{PU: dpu, ForceCold: true}); err != nil {
				t.Fatal(err)
			}
			p.Sleep(10 * time.Millisecond)
		}
		tree := rt.ContainerRuntimeOn(dpu).Forest(lang.Python)
		if tree == nil || tree.LiveNodes() == 0 {
			t.Fatal("no specialized template grew on the DPU")
		}
		if err := rt.KillExecutor(p, dpu); err != nil {
			t.Fatal(err)
		}
		if tree.LiveNodes() != 0 {
			t.Errorf("%d specialized templates survived the executor crash", tree.LiveNodes())
		}
		if tree.LeakedNodes() != 0 {
			t.Errorf("%d templates leaked across the crash", tree.LeakedNodes())
		}
		// The next request transparently respawns and regrows.
		res, err := rt.Invoke(p, "matmul", InvokeOptions{PU: dpu})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cold {
			t.Error("post-crash request not a cold start")
		}
	})
}

// TestZygoteChaosSoakNoTemplateLeak: repeated kill/invoke rounds with the
// fitter racing executor crashes must never leak a template (a retired node
// whose process survived) or corrupt the forest's page accounting.
func TestZygoteChaosSoakNoTemplateLeak(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, zygoteOpts(), func(p *sim.Proc, rt *Runtime) {
		fns := []string{"matmul", "image-resize", "pyaes", "linpack"}
		for _, fn := range fns {
			if err := rt.Deploy(p, fn, DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
				t.Fatal(err)
			}
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		rng := uint64(1)
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % n
		}
		for round := 0; round < 6; round++ {
			for i := 0; i < 10; i++ {
				pin := hw.PUID(-1)
				if i%3 == 0 {
					pin = dpu
				}
				if _, err := rt.Invoke(p, fns[next(len(fns))], InvokeOptions{PU: pin, ForceCold: true}); err != nil {
					t.Fatal(err)
				}
				p.Sleep(5 * time.Millisecond)
			}
			// Crash the DPU executor mid-traffic; in some rounds this lands
			// while a fit proc is growing a template there.
			if err := rt.KillExecutor(p, dpu); err != nil {
				t.Fatal(err)
			}
			p.Sleep(20 * time.Millisecond)
			for _, id := range []hw.PUID{0, dpu} {
				cr := rt.ContainerRuntimeOn(id)
				if cr == nil {
					continue
				}
				for _, kind := range []lang.Kind{lang.Python, lang.Node} {
					tree := cr.Forest(kind)
					if tree == nil {
						continue
					}
					if leaked := tree.LeakedNodes(); leaked != 0 {
						t.Fatalf("round %d: PU %d %s forest leaked %d templates", round, id, kind, leaked)
					}
					if tree.UsedPages() < 0 {
						t.Fatalf("round %d: PU %d %s forest pages went negative", round, id, kind)
					}
				}
			}
		}
		// Traffic still flows after six crashes.
		if _, err := rt.Invoke(p, "matmul", InvokeOptions{PU: dpu}); err != nil {
			t.Fatal(err)
		}
	})
}
