package molecule

import (
	"fmt"

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

// firstIndex returns the first position of s in names.
func firstIndex(names []string, s string) int {
	for i, n := range names {
		if n == s {
			return i
		}
	}
	return -1
}

// candidatePUs returns the general-purpose PUs (in preference order) that
// can host deployment d under the policy.
func (rt *Runtime) candidatePUs(d *Deployment, policy PlacementPolicy) []hw.PUID {
	var cpus, dpus []hw.PUID
	for _, pu := range rt.Machine.PUs() {
		n := rt.nodes[pu.ID]
		if n == nil || n.cr == nil || !d.SupportsKind(pu.Kind) {
			continue
		}
		if n.liveCount >= n.capacity {
			continue
		}
		if pu.Kind == hw.CPU {
			cpus = append(cpus, pu.ID)
		} else {
			dpus = append(dpus, pu.ID)
		}
	}
	switch policy {
	case PlaceCheapest:
		return append(dpus, cpus...)
	default:
		return append(cpus, dpus...)
	}
}

// errChainFull is PlaceChain's refusal when the right PU exists but is
// genuinely full: queueable at a cluster gateway, so it wraps ErrNoCapacity,
// unlike the kind mismatch, which is a deployment error. It is built once
// because a saturated cluster meets it on every placement attempt.
var errChainFull = fmt.Errorf("molecule: %w: every PU supporting the whole chain is full", ErrNoCapacity)

// PlaceChain assigns each function of a chain to a PU according to the
// policy, respecting capacity and profile support. It returns one PUID per
// function.
func (rt *Runtime) PlaceChain(names []string, policy PlacementPolicy) ([]hw.PUID, error) {
	out := make([]hw.PUID, len(names))
	deps := make([]*Deployment, len(names))
	for i, name := range names {
		d, err := rt.Deployment(name)
		if err != nil {
			return nil, err
		}
		deps[i] = d
	}
	switch policy {
	case PlaceChainAffinity:
		// Find one PU every function supports, preferring the host.
		for _, cand := range rt.candidatePUs(deps[0], PlaceFastest) {
			ok := true
			kind := rt.Machine.PU(cand).Kind
			for _, d := range deps {
				if !d.SupportsKind(kind) {
					ok = false
					break
				}
			}
			if ok {
				for i := range out {
					out[i] = cand
				}
				return out, nil
			}
		}
		// Second chance: a PU at capacity can still run the chain when the
		// capacity is pinned by idle warm instances the chain will reuse.
		// This scan only runs where placement used to fail outright, so it
		// cannot change any previously-succeeding placement.
		for _, pu := range rt.Machine.PUs() {
			n := rt.nodes[pu.ID]
			if n == nil || n.cr == nil {
				continue
			}
			supported, need := true, 0
			for i, d := range deps {
				if !d.SupportsKind(pu.Kind) {
					supported = false
					break
				}
				// Count distinct functions with no warm instance here: each
				// needs a free slot (repeat occurrences reuse the released
				// instance).
				if n.warmLen(names[i]) == 0 && firstIndex(names, names[i]) == i {
					need++
				}
			}
			// Idle warm instances beyond what the chain itself reuses are
			// reclaimable: the pinned cold starts evict them on demand
			// (evictForPlacement), so they count as free slots here.
			evictable := 0
			if supported {
				for _, wp := range n.pools {
					keep := 0
					if firstIndex(names, wp.fn) >= 0 {
						keep = 1
					}
					if len(wp.insts) > keep {
						evictable += len(wp.insts) - keep
					}
				}
			}
			// need==0 is accepted even when liveCount overshot capacity
			// (concurrent cold starts reserve only at start-finish): the
			// chain then runs purely on warm reuse.
			if supported && (need == 0 || n.capacity-n.liveCount+evictable >= need) {
				for i := range out {
					out[i] = pu.ID
				}
				return out, nil
			}
			if supported {
				return nil, errChainFull
			}
		}
		return nil, fmt.Errorf("molecule: no single PU supports the whole chain")
	case PlaceScatter:
		// Round-robin across every eligible PU per function.
		rot := 0
		for i, d := range deps {
			cands := rt.candidatePUs(d, PlaceFastest)
			if len(cands) == 0 {
				return nil, fmt.Errorf("molecule: %w for %q", ErrNoCapacity, names[i])
			}
			out[i] = cands[rot%len(cands)]
			rot++
		}
		return out, nil
	default: // PlaceCheapest, PlaceFastest
		for i, d := range deps {
			cands := rt.candidatePUs(d, policy)
			if len(cands) == 0 {
				return nil, fmt.Errorf("molecule: %w for %q", ErrNoCapacity, names[i])
			}
			out[i] = cands[0]
		}
		return out, nil
	}
}
