package molecule

import (
	"fmt"
	"slices"
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
// PU kind from the cost models. A CPU or DPU estimate is priced on the PU
// InvokeWithSLO would pin (sloTarget; an error when there is none): warm
// dispatch + execution, plus a cold start when it holds no warm instance.
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
		n, warm := rt.sloTarget(d, kind)
		if n == nil {
			return 0, fmt.Errorf("molecule: no live %v can take %q", kind, funcName)
		}
		pu := n.pu
		est := params.WarmDispatchTime + pu.ComputeTime(d.Fn.CPUCost(arg))
		if !warm {
			// Cold start, priced by the startup mode.
			switch rt.Opts.Startup {
			case StartupCfork:
				est += pu.StartupTime(30 * time.Millisecond) // cfork class
			case StartupGenericCfork:
				est += pu.StartupTime(30*time.Millisecond + d.Fn.DepImport)
			case StartupSnapshot:
				est += pu.StartupTime(params.SnapshotRestoreTime)
			default: // plain boot + dependency import
				est += pu.StartupTime(params.ContainerCreateTime + params.PythonInitTime + d.Fn.DepImport)
			}
		}
		return est, nil
	}
}

// sloTarget returns the PU an invoke of d pinned to a PU of kind should
// use, and whether it would be warm there: the first live PU of the kind
// holding a running warm instance of d, else the first one that fits a
// cold start. Nil when neither exists.
func (rt *Runtime) sloTarget(d *Deployment, kind hw.PUKind) (target *puNode, warm bool) {
	for _, n := range rt.general {
		if n.pu.Kind != kind || !rt.hosts(n, d) {
			continue
		}
		if wp := n.poolOf(d.rec); wp != nil && slices.ContainsFunc(wp.insts, (*instance).running) {
			return n, true
		}
		if target == nil && rt.fits(n, d) {
			target = n
		}
	}
	return target, false
}

// InvokeWithSLO picks the cheapest deployed profile whose latency estimate
// meets the deadline and invokes the function there, on the CPU or DPU the
// estimate was priced on. A profile with no live PU to run on has no
// estimate and is skipped. The chosen kind and the estimate are returned
// alongside the result.
func (rt *Runtime) InvokeWithSLO(p *sim.Proc, funcName string, slo SLOOptions) (Result, hw.PUKind, time.Duration, error) {
	d, err := rt.Deployment(funcName)
	if err != nil {
		return Result{}, 0, 0, err
	}
	// The cheapest feasible profile (ties to the faster, then the first);
	// with none feasible, the fastest is the best effort.
	type candidate struct {
		kind hw.PUKind
		cost float64 // objective value: lower is better
		est  time.Duration
	}
	var chosen, fastest *candidate
	for _, pr := range d.Profiles {
		est, err := rt.EstimateLatency(funcName, pr.Kind, slo.Arg)
		if err != nil {
			continue
		}
		c := &candidate{kind: pr.Kind, cost: pr.PricePerMs, est: est}
		if slo.Objective == MinimizeCharge {
			c.cost *= float64(est) / float64(time.Millisecond)
		}
		if fastest == nil || est < fastest.est {
			fastest = c
		}
		feasible := slo.Deadline <= 0 || est <= slo.Deadline
		if feasible && (chosen == nil || c.cost < chosen.cost || (c.cost == chosen.cost && est < chosen.est)) {
			chosen = c
		}
	}
	if fastest == nil {
		return Result{}, 0, 0, fmt.Errorf("molecule: no usable profile for %q", funcName)
	}
	if chosen == nil {
		chosen = fastest
	}
	// Pin to the PU the estimate priced (nothing ran since, so sloTarget
	// finds it again); an accelerator pin only names the kind.
	pin := hw.PUID(-1)
	if chosen.kind.GeneralPurpose() {
		n, _ := rt.sloTarget(d, chosen.kind)
		pin = n.pu.ID
	} else if pus := rt.Machine.PUsOfKind(chosen.kind); len(pus) > 0 {
		pin = pus[0].ID
	}
	res, err := rt.Invoke(p, funcName, InvokeOptions{PU: pin, Arg: slo.Arg})
	return res, chosen.kind, chosen.est, err
}
