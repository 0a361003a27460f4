// Package baseline implements the systems Molecule is evaluated against.
//
// Molecule-homo is the homogeneous version of Molecule (§6): it does not use
// XPU-Shim, so each deployment manages a single PU (CPU or DPU, never both,
// and no accelerators); it boots functions the conventional way (container +
// runtime + dependency import, no cfork); and its function DAGs communicate
// over the network through Node.js Express / Python Flask, like OpenWhisk.
// A multi-PU "cluster" of homo deployments models the Baseline-CrossPU rows
// of Fig 14e: functions on different PUs still talk over the network.
//
// The commercial comparators (AWS Lambda, OpenWhisk) are closed platforms
// modeled by their reported startup and step-communication latencies
// (Fig 9); they cannot be re-run offline.
package baseline

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/localos"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Result is one baseline invocation's latency breakdown.
type Result struct {
	Fn      string
	PU      hw.PUID
	Cold    bool
	Startup time.Duration
	Exec    time.Duration
	Total   time.Duration
}

// ChainResult is one baseline DAG invocation.
type ChainResult struct {
	Total       time.Duration
	EdgeLatency []time.Duration // one-way request latency per edge (Fig 12)
	ExecTotal   time.Duration
}

// Homo is a Molecule-homo deployment set: one conventional serverless
// runtime per general-purpose PU.
type Homo struct {
	Env      *sim.Env
	Machine  *hw.Machine
	Registry *workloads.Registry

	// JitterPct adds deterministic per-request latency variation, like
	// molecule.Options.JitterPct.
	JitterPct float64

	oses      map[hw.PUID]*localos.OS
	warm      map[hw.PUID]map[string][]*lang.Instance
	jitterSeq uint64
}

// NewHomo builds homo deployments on every general-purpose PU of the
// machine.
func NewHomo(env *sim.Env, m *hw.Machine, reg *workloads.Registry) *Homo {
	h := &Homo{
		Env: env, Machine: m, Registry: reg,
		oses: make(map[hw.PUID]*localos.OS),
		warm: make(map[hw.PUID]map[string][]*lang.Instance),
	}
	for _, pu := range m.PUs() {
		if pu.Kind.GeneralPurpose() {
			h.oses[pu.ID] = localos.New(env, pu)
			h.warm[pu.ID] = make(map[string][]*lang.Instance)
		}
	}
	return h
}

// langHopPenalty scales the per-edge network latency by the web framework's
// request handling weight (Flask > Express).
func langHopPenalty(k lang.Kind) float64 {
	if k == lang.Python {
		return params.FlaskHopPenalty
	}
	return 1.0
}

// coldStart boots a function instance the conventional way: container +
// runtime init + function load + dependency import.
func (h *Homo) coldStart(p *sim.Proc, fn *workloads.Function, pu hw.PUID) (*lang.Instance, error) {
	os, ok := h.oses[pu]
	if !ok {
		return nil, fmt.Errorf("baseline: PU %d runs no homo deployment", pu)
	}
	spec, err := lang.SpecFor(fn.Lang)
	if err != nil {
		return nil, err
	}
	inst := lang.BaselineColdStart(p, os, spec, fn.Name, "homo-"+fn.Name)
	p.Sleep(os.PU.StartupTime(fn.DepImport))
	return inst, nil
}

// Invoke serves one request on the given PU, using a warm instance when one
// is cached.
func (h *Homo) Invoke(p *sim.Proc, funcName string, pu hw.PUID, arg workloads.Arg, forceCold bool) (Result, error) {
	fn, err := h.Registry.Get(funcName)
	if err != nil {
		return Result{}, err
	}
	if _, ok := h.oses[pu]; !ok {
		return Result{}, fmt.Errorf("baseline: PU %d runs no homo deployment", pu)
	}
	start := p.Now()
	pool := h.warm[pu][funcName]
	var inst *lang.Instance
	cold := true
	if !forceCold && len(pool) > 0 {
		inst = pool[len(pool)-1]
		h.warm[pu][funcName] = pool[:len(pool)-1]
		cold = false
	} else {
		inst, err = h.coldStart(p, fn, pu)
		if err != nil {
			return Result{}, err
		}
	}
	if extra := sim.Jitter(p.Now().Sub(start), h.JitterPct, &h.jitterSeq) - p.Now().Sub(start); extra > 0 {
		p.Sleep(extra)
	}
	startupDone := p.Now()
	if !cold {
		p.Sleep(params.WarmDispatchTime)
	}
	inst.Invoke(p, sim.Jitter(fn.CPUCost(arg), h.JitterPct, &h.jitterSeq), false)
	h.warm[pu][funcName] = append(h.warm[pu][funcName], inst)
	return Result{
		Fn: funcName, PU: pu, Cold: cold,
		Startup: startupDone.Sub(start),
		Exec:    p.Now().Sub(startupDone),
		Total:   p.Now().Sub(start),
	}, nil
}

// InvokeChain runs a synchronous function chain the baseline way: every
// edge is an HTTP request through the web framework (and the network stack
// between PUs), and every response travels back the same path. Instances
// are booted on first use and cached, like a warmed OpenWhisk deployment.
func (h *Homo) InvokeChain(p *sim.Proc, names []string, placement []hw.PUID, arg workloads.Arg) (ChainResult, error) {
	if len(names) == 0 {
		return ChainResult{}, fmt.Errorf("baseline: empty chain")
	}
	if placement == nil {
		placement = make([]hw.PUID, len(names))
	}
	if len(placement) != len(names) {
		return ChainResult{}, fmt.Errorf("baseline: placement length mismatch")
	}
	fns := make([]*workloads.Function, len(names))
	insts := make([]*lang.Instance, len(names))
	for i, name := range names {
		fn, err := h.Registry.Get(name)
		if err != nil {
			return ChainResult{}, err
		}
		fns[i] = fn
		pool := h.warm[placement[i]][name]
		if len(pool) > 0 {
			insts[i] = pool[len(pool)-1]
			h.warm[placement[i]][name] = pool[:len(pool)-1]
		} else {
			inst, err := h.coldStart(p, fn, placement[i])
			if err != nil {
				return ChainResult{}, err
			}
			insts[i] = inst
		}
	}
	defer func() {
		for i, inst := range insts {
			h.warm[placement[i]][names[i]] = append(h.warm[placement[i]][names[i]], inst)
		}
	}()

	var res ChainResult
	start := p.Now()
	// Gateway → first function (request), then down the chain; responses
	// unwind synchronously.
	hop := func(from, to hw.PUID, k lang.Kind, bytes int) time.Duration {
		return time.Duration(float64(h.Machine.NetworkTransferTime(from, to, bytes)) * langHopPenalty(k))
	}
	// Request edges (the gateway entry is common to every system and is
	// excluded from the measurement, like the paper's).
	for i := range names {
		if i > 0 {
			argB, _ := fns[i].Sizes(arg)
			d := hop(placement[i-1], placement[i], fns[i].Lang, argB)
			res.EdgeLatency = append(res.EdgeLatency, d)
			p.Sleep(d)
		}
		execStart := p.Now()
		insts[i].Invoke(p, fns[i].CPUCost(arg), false)
		res.ExecTotal += p.Now().Sub(execStart)
	}
	// Response edges unwind back toward the gateway.
	for i := len(names) - 1; i >= 1; i-- {
		_, resB := fns[i].Sizes(arg)
		p.Sleep(hop(placement[i], placement[i-1], fns[i].Lang, resB))
	}
	res.Total = p.Now().Sub(start)
	return res, nil
}

// EdgeLatencyOneWay returns the baseline's one-way DAG edge latency between
// two PUs for a function of the given language — the quantity Fig 12 plots.
func (h *Homo) EdgeLatencyOneWay(from, to hw.PUID, k lang.Kind, bytes int) time.Duration {
	return time.Duration(float64(h.Machine.NetworkTransferTime(from, to, bytes)) * langHopPenalty(k))
}

// --- Commercial platforms (Fig 9) -------------------------------------------

// Commercial models a closed serverless platform by its reported latencies.
type Commercial struct {
	Name    string
	Startup time.Duration
	Comm    time.Duration
}

// AWSLambda returns the AWS Lambda model (startup: managed MicroVM cold
// boot; comm: Step Functions transition).
func AWSLambda() Commercial {
	return Commercial{Name: "AWS Lambda", Startup: params.AWSLambdaStartup, Comm: params.AWSLambdaStepComm}
}

// OpenWhisk returns the Apache OpenWhisk model (startup: docker cold boot
// through the invoker; comm: action-to-action via the controller).
func OpenWhisk() Commercial {
	return Commercial{Name: "OpenWhisk", Startup: params.OpenWhiskStartup, Comm: params.OpenWhiskComm}
}
