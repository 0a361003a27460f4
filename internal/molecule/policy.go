package molecule

import (
	"fmt"
	"slices"

	"repro/internal/faults"
	"repro/internal/hw"
)

// PlacementPolicy selects a PU for each function of an application when a
// multi-setting request arrives (§5 "Profile selections"): users may deploy
// a function under several profiles, and the control plane chooses among
// them by platform policy.
type PlacementPolicy int

const (
	// PlaceChainAffinity locates every function of a chain on the same PU
	// (the paper's default: co-location minimizes communication latency).
	PlaceChainAffinity PlacementPolicy = iota
	// PlaceCheapest picks the lowest-price profile with free capacity
	// (DPU first) for each function independently.
	PlaceCheapest
	// PlaceFastest picks the highest-performance general-purpose profile
	// (CPU first), falling back to DPUs when the CPU is full.
	PlaceFastest
	// PlaceScatter round-robins functions across PUs — the adversarial
	// placement used as the ablation against chain affinity.
	PlaceScatter
)

var policyNames = map[PlacementPolicy]string{
	PlaceChainAffinity: "chain-affinity",
	PlaceCheapest:      "cheapest",
	PlaceFastest:       "fastest",
	PlaceScatter:       "scatter",
}

func (p PlacementPolicy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("PlacementPolicy(%d)", int(p))
}

// candidate returns the k-th PU, counting modulo their number, that fits a
// new instance of d in the policy's preference order: CPUs first, then
// DPUs (those first under PlaceCheapest), machine order within each group.
// Nil when no PU fits. It scans in place, so asking allocates nothing.
func (rt *Runtime) candidate(d *Deployment, policy PlacementPolicy, k int) *puNode {
	cpuFirst := policy != PlaceCheapest
	for pass := 0; pass < 2; pass++ {
		count := 0
		for _, wantCPU := range [2]bool{cpuFirst, !cpuFirst} {
			for _, n := range rt.general {
				if (n.pu.Kind == hw.CPU) != wantCPU || !rt.fits(n, d) {
					continue
				}
				if count == k {
					return n
				}
				count++
			}
		}
		if count == 0 {
			return nil
		}
		k %= count // the second pass finds the wrapped index
	}
	return nil
}

// chainSupports reports whether every function of the chain supports kind.
func chainSupports(recs []*funcRec, kind hw.PUKind) bool {
	for _, r := range recs {
		if !r.dep.SupportsKind(kind) {
			return false
		}
	}
	return true
}

// onePU returns a placement of n functions all on id.
func onePU(n int, id hw.PUID) []hw.PUID {
	out := make([]hw.PUID, n)
	for i := range out {
		out[i] = id
	}
	return out
}

// errChainFull is PlaceChain's refusal when the right PU exists but is
// genuinely full: queueable at a cluster gateway, so it wraps ErrNoCapacity,
// unlike the kind mismatch, which is a deployment error. It is built once
// because a saturated cluster meets it on every placement attempt.
var errChainFull = fmt.Errorf("molecule: %w: every PU supporting the whole chain is full", ErrNoCapacity)

// PlaceChain assigns each function of a chain to a PU according to the
// policy, respecting capacity and profile support. It returns one PUID per
// function, never a PU that is down (the rule a cold start is placed by);
// when every PU supporting an affinity chain is down, the error wraps
// faults.ErrPUDown. The names are resolved once, to their function
// records, and placement compares records from then on. A chain-affinity refusal on a
// full machine allocates nothing: the records sit in an array on the stack
// (a chain longer than it spills to the heap), and the placement slice is
// made only on success.
func (rt *Runtime) PlaceChain(names []string, policy PlacementPolicy) ([]hw.PUID, error) {
	var buf [16]*funcRec
	recs := buf[:0]
	for _, name := range names {
		d := rt.deployment(name)
		if d == nil {
			return nil, errNotDeployed(name)
		}
		recs = append(recs, d.rec)
	}
	switch policy {
	case PlaceChainAffinity:
		// Find one PU that fits the first function and that every function
		// supports, preferring the host.
		first := recs[0].dep
		for _, n := range rt.general {
			if rt.fits(n, first) && chainSupports(recs, n.pu.Kind) {
				return onePU(len(names), n.pu.ID), nil
			}
		}
		// Second chance: a PU at capacity can still run the chain when the
		// capacity is pinned by idle warm instances the chain will reuse.
		// This scan only runs where placement used to fail outright, so it
		// cannot change any previously-succeeding placement.
		down := false
		for _, n := range rt.general {
			if !chainSupports(recs, n.pu.Kind) {
				continue
			}
			if !rt.hosts(n, first) {
				down = true
				continue
			}
			// Each distinct function with no warm instance here needs a
			// free slot (repeat occurrences reuse the released instance);
			// each one with a warm instance keeps one for the chain.
			need, reused := 0, 0
			for i, r := range recs {
				if slices.Index(recs[:i], r) >= 0 {
					continue
				}
				if n.warmLen(r) == 0 {
					need++
				} else {
					reused++
				}
			}
			// Idle warm instances beyond what the chain itself reuses are
			// reclaimable: the pinned cold starts evict them on demand
			// (evictForPlacement), so they count as free slots here.
			evictable := n.warmCount - reused
			// need==0 is accepted even when liveCount overshot capacity
			// (concurrent cold starts reserve only at start-finish): the
			// chain then runs purely on warm reuse.
			if need == 0 || n.capacity-n.liveCount+evictable >= need {
				return onePU(len(names), n.pu.ID), nil
			}
			return nil, errChainFull
		}
		if down { // not a capacity problem: the cluster boss fails over
			return nil, fmt.Errorf("molecule: every PU supporting the whole chain is down: %w", faults.ErrPUDown)
		}
		return nil, fmt.Errorf("molecule: no single PU supports the whole chain")
	default: // PlaceCheapest, PlaceFastest, PlaceScatter
		out := make([]hw.PUID, len(names))
		for i, r := range recs {
			k := 0
			if policy == PlaceScatter {
				k = i // round-robin across every PU that fits
			}
			n := rt.candidate(r.dep, policy, k)
			if n == nil {
				return nil, fmt.Errorf("molecule: %w for %q", ErrNoCapacity, r.name)
			}
			out[i] = n.pu.ID
		}
		return out, nil
	}
}
