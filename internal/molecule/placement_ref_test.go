package molecule

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// refPlaceChain is PlaceChain as it was before function records, with
// its own candidate walk: every function is looked up by name, each
// candidate PU re-resolves the whole chain, and repeats and warm pools are
// matched by comparing names. The liveness rule is stated here, not taken
// from the runtime: a PU is live unless the attached fault plan has it
// down right now, and no policy may pick a PU that is not live.
// TestPlaceChainMatchesReference and FuzzWarmPools hold PlaceChain to it.
func refPlaceChain(rt *Runtime, names []string, policy PlacementPolicy) ([]hw.PUID, error) {
	for _, name := range names {
		if _, err := rt.Deployment(name); err != nil {
			return nil, err
		}
	}
	switch policy {
	case PlaceChainAffinity:
		for _, id := range refCandidates(rt, names[0], true) {
			if refSupportsChain(rt, names, rt.Machine.PU(id).Kind) {
				return onePU(len(names), id), nil
			}
		}
		down := false
		for _, pu := range rt.Machine.PUs() {
			n := rt.nodes[pu.ID]
			if n == nil || n.cr == nil {
				continue
			}
			if !refSupportsChain(rt, names, pu.Kind) {
				continue
			}
			if refDown(rt, pu.ID) {
				down = true
				continue
			}
			need := 0
			for i, name := range names {
				if refWarmLen(n, name) == 0 && refFirstIndex(names, name) == i {
					need++
				}
			}
			evictable := 0
			for _, wp := range n.pools {
				keep := 0
				if refFirstIndex(names, wp.rec.name) >= 0 {
					keep = 1
				}
				if len(wp.insts) > keep {
					evictable += len(wp.insts) - keep
				}
			}
			if need == 0 || n.capacity-n.liveCount+evictable >= need {
				return onePU(len(names), pu.ID), nil
			}
			return nil, errChainFull
		}
		if down {
			return nil, fmt.Errorf("molecule: every PU supporting the whole chain is down: %w", faults.ErrPUDown)
		}
		return nil, fmt.Errorf("molecule: no single PU supports the whole chain")
	default:
		out := make([]hw.PUID, len(names))
		for i, name := range names {
			cands := refCandidates(rt, name, policy != PlaceCheapest)
			if len(cands) == 0 {
				return nil, fmt.Errorf("molecule: %w for %q", ErrNoCapacity, name)
			}
			out[i] = cands[0]
			if policy == PlaceScatter {
				out[i] = cands[i%len(cands)]
			}
		}
		return out, nil
	}
}

// refCandidates lists the live general-purpose PUs with room for another
// instance of the function named fn: CPUs first when cpuFirst, else the
// other kinds first, machine order within each group.
func refCandidates(rt *Runtime, fn string, cpuFirst bool) []hw.PUID {
	var out []hw.PUID
	for _, wantCPU := range [2]bool{cpuFirst, !cpuFirst} {
		for _, pu := range rt.Machine.PUs() {
			n := rt.nodes[pu.ID]
			if (pu.Kind == hw.CPU) != wantCPU || n == nil || n.cr == nil || refDown(rt, pu.ID) {
				continue
			}
			if rt.deployment(fn).SupportsKind(pu.Kind) && n.liveCount < n.capacity {
				out = append(out, pu.ID)
			}
		}
	}
	return out
}

// refDown is the reference's liveness rule: the attached plan has id down.
func refDown(rt *Runtime, id hw.PUID) bool {
	return rt.faults != nil && rt.faults.Down(id)
}

func refFirstIndex(names []string, s string) int {
	for i, n := range names {
		if n == s {
			return i
		}
	}
	return -1
}

func refSupportsChain(rt *Runtime, names []string, kind hw.PUKind) bool {
	for _, name := range names {
		if !rt.deployment(name).SupportsKind(kind) {
			return false
		}
	}
	return true
}

// refWarmLen counts node n's idle instances of the function named fn.
func refWarmLen(n *puNode, fn string) int {
	if wp := poolNamed(n, fn); wp != nil {
		return len(wp.insts)
	}
	return 0
}

var allPolicies = [...]PlacementPolicy{PlaceChainAffinity, PlaceCheapest, PlaceFastest, PlaceScatter}

// placeChainErr runs PlaceChain and the reference on one chain under every
// policy and describes the first disagreement in placement, error text or
// error class.
func placeChainErr(rt *Runtime, names []string) error {
	for _, policy := range allPolicies {
		got, gerr := rt.PlaceChain(names, policy)
		want, werr := refPlaceChain(rt, names, policy)
		switch {
		case (gerr == nil) != (werr == nil):
			return fmt.Errorf("%v %q: PlaceChain (%v, %v), reference (%v, %v)", policy, names, got, gerr, want, werr)
		case gerr != nil && (gerr.Error() != werr.Error() || errors.Is(gerr, ErrNoCapacity) != errors.Is(werr, ErrNoCapacity)):
			return fmt.Errorf("%v %q: PlaceChain error %q, reference %q", policy, names, gerr, werr)
		case !slices.Equal(got, want):
			return fmt.Errorf("%v %q: PlaceChain %v, reference %v", policy, names, got, want)
		}
	}
	return nil
}

// clearWarm forgets every pool on the runtime's nodes, fake ones included.
func clearWarm(rt *Runtime) {
	for _, n := range rt.general {
		for _, wp := range n.pools {
			wp.rec.warm -= len(wp.insts)
		}
		n.pools = nil
		clear(n.byIdx)
		n.warmCount = 0
	}
}

// TestPlaceChainMatchesReference holds record-based PlaceChain to the
// name-based reference under every policy, over random node states (each
// general-purpose PU's capacity and live count, and warm pools on one to
// three PUs), with a random subset of the general-purpose PUs crashed for
// the round, and random chains: Alexa, MapReduce, repeated names, chains
// longer than PlaceChain's stack array, undeployed names, never-deployed
// names, and functions with no CPU or DPU profile.
func TestPlaceChainMatchesReference(t *testing.T) {
	run(t, hw.Config{DPUs: 2, FPGAs: 1, GPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		cpu, dpu := DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)
		deploys := []struct {
			fn       string
			profiles []Profile
		}{
			{"mr-splitter", []Profile{cpu, dpu}},
			{"mr-mapper", []Profile{cpu, dpu}},
			{"mr-reducer", []Profile{dpu}},
			{"pyaes", []Profile{cpu}},
			{"dd", []Profile{dpu, cpu}},
			{"matrix-comput", []Profile{DefaultProfile(hw.FPGA)}},
			{"mscale", []Profile{DefaultProfile(hw.GPU)}},
			{"helloworld", []Profile{cpu, dpu}}, // undeployed below
		}
		for _, fn := range workloads.AlexaChain() {
			if err := rt.Deploy(p, fn, cpu, dpu); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range deploys {
			if err := rt.Deploy(p, d.fn, d.profiles...); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Undeploy(p, "helloworld"); err != nil {
			t.Fatal(err)
		}
		var deployed []*funcRec
		for _, r := range rt.funcs {
			if r.dep != nil {
				deployed = append(deployed, r)
			}
		}
		slices.SortFunc(deployed, func(a, b *funcRec) int { return a.idx - b.idx })
		names := []string{"helloworld", "linpack"} // undeployed, never deployed
		for _, r := range deployed {
			names = append(names, r.name)
		}
		pl := faults.NewPlan(rt.Env, 1)
		rt.AttachFaults(pl)
		rng := rand.New(rand.NewSource(1))
		refusals, downs := 0, 0
		for round := 0; round < 3000; round++ {
			clearWarm(rt)
			for _, n := range rt.general {
				n.capacity = rng.Intn(7)
				n.liveCount = rng.Intn(n.capacity + 3)
				if rng.Intn(4) == 0 {
					pl.Kill(n.pu.ID)
				}
			}
			for _, i := range rng.Perm(len(rt.general))[:1+rng.Intn(3)] {
				n := rt.general[i]
				// Sandbox-less instances: placement reads only the counts.
				for k := rng.Intn(4); k >= 0; k-- {
					r, size := deployed[rng.Intn(len(deployed))], 1+rng.Intn(3)
					fillPool(n, r, size)
					r.warm += size
				}
			}
			var chain []string
			switch rng.Intn(4) {
			case 0:
				chain = workloads.AlexaChain()
			case 1:
				chain = workloads.MapReduceChain()
			default:
				// Random names, repeats likely; some longer than 16. Mostly
				// deployed, so placements get past name resolution.
				for k := 1 + rng.Intn(20); k > 0; k-- {
					name := names[2+rng.Intn(len(names)-2)]
					if rng.Intn(20) == 0 {
						name = names[rng.Intn(2)]
					}
					chain = append(chain, name)
				}
			}
			switch _, err := refPlaceChain(rt, chain, PlaceChainAffinity); {
			case errors.Is(err, ErrNoCapacity):
				refusals++
			case errors.Is(err, faults.ErrPUDown):
				downs++
			}
			if err := placeChainErr(rt, chain); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			for _, n := range rt.general {
				pl.Revive(n.pu.ID)
			}
		}
		rt.AttachFaults(nil)
		if refusals < 100 {
			t.Errorf("only %d of 3000 affinity placements were refused for capacity; the states do not reach the refusal path", refusals)
		}
		if downs < 20 {
			t.Errorf("only %d of 3000 affinity placements found every supporting PU down; the crashes do not reach that path", downs)
		}
		clearWarm(rt)
		checkWarmCounts(t, rt, "after the fake pools are cleared")
	})
}
