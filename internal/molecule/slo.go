package molecule

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// SLOObjective selects what "cheapest" means among deadline-feasible
// profiles.
type SLOObjective int

const (
	// MinimizeCharge picks the lowest estimated total charge
	// (estimated ms × rate) — the economically sound default: a premium
	// accelerator can be the cheapest when it finishes much sooner.
	MinimizeCharge SLOObjective = iota
	// MinimizeRate picks the lowest per-millisecond rate (the §4.1 user
	// intuition: DPU cheapest, FPGA priciest), regardless of duration.
	MinimizeRate
)

// SLOOptions ask the platform to pick a profile for the request (§4.1:
// "users can choose multiple settings and let the platform decide"):
// among the function's deployed profiles, choose the cheapest (per the
// objective) whose estimated latency meets the deadline; with no feasible
// profile, the fastest wins.
type SLOOptions struct {
	// Deadline bounds the estimated end-to-end latency (0 = none: pick the
	// cheapest profile outright).
	Deadline time.Duration
	// Objective defines cheapest (default MinimizeCharge).
	Objective SLOObjective
	// Arg parameterizes the cost estimate and the invocation.
	Arg workloads.Arg
}

// EstimateLatency predicts the end-to-end latency of funcName on the given
// PU kind from the cost models: warm dispatch + execution, plus the
// cold-start estimate when no warm instance (or cached image) is available.
func (rt *Runtime) EstimateLatency(funcName string, kind hw.PUKind, arg workloads.Arg) (time.Duration, error) {
	d, err := rt.Deployment(funcName)
	if err != nil {
		return 0, err
	}
	if _, ok := d.ProfileFor(kind); !ok {
		return 0, fmt.Errorf("molecule: %q has no %v profile", funcName, kind)
	}
	switch kind {
	case hw.FPGA:
		argB, resB := d.Fn.Sizes(arg)
		est := d.Fn.FabricCost(arg) + params.FPGACommandLatency
		if n, _, err := rt.accelSandboxFor(hw.FPGA, funcName); err == nil {
			l, _ := rt.Machine.LinkBetween(rt.hostID, n.pu.ID)
			est += l.TransferTime(argB) + l.TransferTime(resB)
		} else {
			// Image miss: reprogramming dominates.
			est += params.FPGAImageLoadTime + params.FPGASandboxPrep
		}
		return est, nil
	case hw.GPU:
		if _, _, err := rt.accelSandboxFor(hw.GPU, funcName); err != nil {
			est := d.Fn.GPUKernel + 200*time.Millisecond // module load class
			return est, nil
		}
		return d.Fn.GPUKernel + 2*params.DMABaseLatency + 50*time.Microsecond, nil
	default:
		// General-purpose: find a PU of this kind.
		var pu *hw.PU
		for _, cand := range rt.Machine.PUsOfKind(kind) {
			pu = cand
			break
		}
		if pu == nil {
			return 0, fmt.Errorf("molecule: machine has no %v", kind)
		}
		est := params.WarmDispatchTime + pu.ComputeTime(d.Fn.CPUCost(arg))
		if rt.peekWarm(funcName, kind) == nil {
			// Cold start: cfork or plain boot + dependency import.
			if rt.Opts.UseCfork {
				est += pu.StartupTime(30 * time.Millisecond) // cfork class
			} else {
				est += pu.StartupTime(params.ContainerCreateTime + params.PythonInitTime + d.Fn.DepImport)
			}
		}
		return est, nil
	}
}

// peekWarm reports a warm instance of fn on any PU of the kind, without
// taking it.
func (rt *Runtime) peekWarm(fn string, kind hw.PUKind) *instance {
	for _, n := range rt.orderedNodes() {
		if n.pu.Kind != kind {
			continue
		}
		for _, inst := range n.warm[fn] {
			if inst.sb != nil {
				return inst
			}
		}
	}
	return nil
}

// InvokeWithSLO picks the cheapest deployed profile whose latency estimate
// meets the deadline and invokes the function there. The chosen kind and
// the estimate are returned alongside the result.
func (rt *Runtime) InvokeWithSLO(p *sim.Proc, funcName string, slo SLOOptions) (Result, hw.PUKind, time.Duration, error) {
	d, err := rt.Deployment(funcName)
	if err != nil {
		return Result{}, 0, 0, err
	}
	type candidate struct {
		kind hw.PUKind
		cost float64 // objective value: lower is better
		est  time.Duration
	}
	var cands []candidate
	for _, pr := range d.Profiles {
		est, err := rt.EstimateLatency(funcName, pr.Kind, slo.Arg)
		if err != nil {
			continue
		}
		cost := pr.PricePerMs
		if slo.Objective == MinimizeCharge {
			cost = pr.PricePerMs * (float64(est) / float64(time.Millisecond))
		}
		cands = append(cands, candidate{kind: pr.Kind, cost: cost, est: est})
	}
	if len(cands) == 0 {
		return Result{}, 0, 0, fmt.Errorf("molecule: no usable profile for %q", funcName)
	}
	best := -1
	for i, c := range cands {
		if slo.Deadline > 0 && c.est > slo.Deadline {
			continue
		}
		if best == -1 || c.cost < cands[best].cost ||
			(c.cost == cands[best].cost && c.est < cands[best].est) {
			best = i
		}
	}
	if best == -1 {
		// Infeasible deadline: the fastest profile is the best effort.
		best = 0
		for i, c := range cands {
			if c.est < cands[best].est {
				best = i
			}
		}
	}
	chosen := cands[best]
	// Pin to a PU of the chosen kind.
	pin := hw.PUID(-1)
	for _, pu := range rt.Machine.PUsOfKind(chosen.kind) {
		pin = pu.ID
		break
	}
	res, err := rt.Invoke(p, funcName, InvokeOptions{PU: pin, Arg: slo.Arg})
	return res, chosen.kind, chosen.est, err
}
