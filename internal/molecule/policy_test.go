package molecule

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestPolicyStrings(t *testing.T) {
	if PlaceChainAffinity.String() != "chain-affinity" || PlacementPolicy(9).String() == "" {
		t.Error("policy String broken")
	}
}

func deployAlexaBoth(t *testing.T, p *sim.Proc, rt *Runtime) {
	t.Helper()
	for _, fn := range workloads.AlexaChain() {
		if err := rt.Deploy(p, fn, DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPlaceChainAffinityColocates(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployAlexaBoth(t, p, rt)
		pl, err := rt.PlaceChain(workloads.AlexaChain(), PlaceChainAffinity)
		if err != nil {
			t.Fatal(err)
		}
		for i, pu := range pl {
			if pu != pl[0] {
				t.Errorf("function %d on PU %d, want co-located on %d", i, pu, pl[0])
			}
		}
		if pl[0] != 0 {
			t.Errorf("chain placed on PU %d, want the host", pl[0])
		}
	})
}

func TestPlaceChainAffinityOverflowsWhenHostFull(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployAlexaBoth(t, p, rt)
		rt.Node(0).liveCount = rt.Node(0).capacity // host full
		pl, err := rt.PlaceChain(workloads.AlexaChain(), PlaceChainAffinity)
		if err != nil {
			t.Fatal(err)
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		if pl[0] != dpu {
			t.Errorf("chain placed on PU %d with full host, want DPU %d", pl[0], dpu)
		}
	})
}

// TestPlaceChainAffinityFullIsNoCapacity: with the only supporting PU full,
// affinity placement refuses with an error a cluster gateway can queue on.
func TestPlaceChainAffinityFullIsNoCapacity(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployAlexaBoth(t, p, rt)
		rt.Node(0).liveCount = rt.Node(0).capacity
		_, err := rt.PlaceChain(workloads.AlexaChain(), PlaceChainAffinity)
		if !errors.Is(err, ErrNoCapacity) {
			t.Fatalf("PlaceChain error = %v, want one wrapping ErrNoCapacity", err)
		}
		const want = "molecule: no capacity: every PU supporting the whole chain is full"
		if err.Error() != want {
			t.Errorf("PlaceChain error = %q, want %q", err, want)
		}
	})
}

// TestPlaceChainRefusalAllocs: a saturated cluster meets the affinity
// refusal on every admission attempt, so refusing on a full PU allocates
// nothing, and a placement allocates only the slice it returns.
func TestPlaceChainRefusalAllocs(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployAlexaBoth(t, p, rt)
		chain := workloads.AlexaChain()
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := rt.PlaceChain(chain, PlaceChainAffinity); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("affinity placement allocates %v/op, want 1 (the placement)", allocs)
		}
		rt.Node(0).liveCount = rt.Node(0).capacity
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := rt.PlaceChain(chain, PlaceChainAffinity); !errors.Is(err, ErrNoCapacity) {
				t.Fatalf("PlaceChain error = %v, want ErrNoCapacity", err)
			}
		}); allocs != 0 {
			t.Errorf("affinity refusal on a full PU allocates %v/op, want 0", allocs)
		}
	})
}

func TestPlaceCheapestPrefersDPU(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployAlexaBoth(t, p, rt)
		pl, err := rt.PlaceChain(workloads.AlexaChain(), PlaceCheapest)
		if err != nil {
			t.Fatal(err)
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		for i, pu := range pl {
			if pu != dpu {
				t.Errorf("function %d on PU %d, cheapest policy should pick the DPU", i, pu)
			}
		}
	})
}

func TestPlaceFastestPrefersCPU(t *testing.T) {
	run(t, hw.Config{DPUs: 2}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployAlexaBoth(t, p, rt)
		pl, err := rt.PlaceChain(workloads.AlexaChain(), PlaceFastest)
		if err != nil {
			t.Fatal(err)
		}
		for i, pu := range pl {
			if pu != 0 {
				t.Errorf("function %d on PU %d, fastest policy should pick the host", i, pu)
			}
		}
	})
}

func TestPlaceScatterSpreads(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployAlexaBoth(t, p, rt)
		pl, err := rt.PlaceChain(workloads.AlexaChain(), PlaceScatter)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[hw.PUID]bool{}
		for _, pu := range pl {
			seen[pu] = true
		}
		if len(seen) < 2 {
			t.Errorf("scatter used %d PUs, want >= 2 (placement %v)", len(seen), pl)
		}
	})
}

func TestPlaceChainUndeployed(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if _, err := rt.PlaceChain([]string{"nope"}, PlaceChainAffinity); err == nil {
			t.Error("placement of undeployed chain succeeded")
		}
	})
}

func TestPlaceChainAffinityNoCommonPU(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		// One function CPU-only, one DPU-only: no single PU fits both.
		if err := rt.Deploy(p, "alexa-frontend", DefaultProfile(hw.CPU)); err != nil {
			t.Fatal(err)
		}
		if err := rt.Deploy(p, "alexa-interact", DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.PlaceChain([]string{"alexa-frontend", "alexa-interact"}, PlaceChainAffinity); err == nil {
			t.Error("affinity placement succeeded with no common PU")
		}
	})
}

// TestChainAffinityBeatsScatter is the placement ablation DESIGN.md calls
// out: co-locating a chain must yield lower end-to-end latency than
// scattering it across PUs.
func TestChainAffinityBeatsScatter(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployAlexaBoth(t, p, rt)
		chain := workloads.AlexaChain()
		invoke := func(policy PlacementPolicy) ChainResult {
			placement, err := rt.PlaceChain(chain, policy)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rt.InvokeChain(p, chain, ChainOptions{Placement: placement})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		// Warm both placements.
		invoke(PlaceChainAffinity)
		invoke(PlaceScatter)
		aff, sc := invoke(PlaceChainAffinity), invoke(PlaceScatter)
		if aff.Total >= sc.Total {
			t.Errorf("affinity (%v) not faster than scatter (%v)", aff.Total, sc.Total)
		}
	})
}

// BenchmarkPlaceChainRefusal measures the affinity placement a saturated
// cluster retries on every admission attempt: an Alexa chain refused on a
// full host whose live instances include warm ones of two chain functions,
// so the second-chance scan runs to its end.
func BenchmarkPlaceChainRefusal(b *testing.B) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{})
	env.Spawn("bench", func(p *sim.Proc) {
		rt, err := New(p, m, workloads.NewRegistry(), DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		chain := workloads.AlexaChain()
		for _, fn := range chain {
			if err := rt.Deploy(p, fn, DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
				b.Fatal(err)
			}
		}
		for _, fn := range chain[:2] {
			if _, err := rt.Invoke(p, fn, DefaultInvokeOptions()); err != nil {
				b.Fatal(err)
			}
		}
		host := rt.Node(rt.HostID())
		host.capacity = host.liveCount
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.PlaceChain(chain, PlaceChainAffinity); !errors.Is(err, ErrNoCapacity) {
				b.Fatalf("PlaceChain error = %v, want ErrNoCapacity", err)
			}
		}
	})
	env.Run()
}

// TestPlaceChainSkipsCrashedPU: with the first DPU crashed, no policy
// places a function on it, and the chain runs on the placement.
func TestPlaceChainSkipsCrashedPU(t *testing.T) {
	run(t, hw.Config{DPUs: 2}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployAlexaBoth(t, p, rt)
		pl := faults.NewPlan(rt.Env, 1)
		rt.AttachFaults(pl)
		pl.Kill(1)
		chain := workloads.AlexaChain()
		for _, policy := range allPolicies {
			placement, err := rt.PlaceChain(chain, policy)
			if err != nil {
				t.Fatalf("%v: %v", policy, err)
			}
			if slices.Contains(placement, 1) {
				t.Errorf("%v placed on crashed PU 1: %v", policy, placement)
			}
			if _, err := rt.InvokeChain(p, chain, ChainOptions{Placement: placement}); err != nil {
				t.Errorf("%v: chain on %v: %v", policy, placement, err)
			}
		}
	})
}

// TestPlaceChainAllDownIsPUDown: with every PU that supports the chain
// crashed, affinity placement fails as an infrastructure error, so a
// cluster gateway fails the machine over instead of queueing on it.
func TestPlaceChainAllDownIsPUDown(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployAlexaBoth(t, p, rt)
		pl := faults.NewPlan(rt.Env, 1)
		rt.AttachFaults(pl)
		pl.Kill(0)
		pl.Kill(1)
		_, err := rt.PlaceChain(workloads.AlexaChain(), PlaceChainAffinity)
		if !errors.Is(err, faults.ErrPUDown) || errors.Is(err, ErrNoCapacity) {
			t.Errorf("placement with every PU down: %v, want ErrPUDown", err)
		}
	})
}
