package molecule

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Resident is a warm instance held for repeated requests: §4.2's "Molecule
// can assign requests to the child instance", over the same FIFO data plane
// a chain uses. It keeps one instance and the wiring of a one-stage chain
// over it, and runs each call as that chain. Calls are served one at a time
// (concurrent callers queue, like a real single-threaded handler).
type Resident struct {
	rt     *Runtime
	insts  [1]*instance
	deps   [1]*Deployment
	wiring *chainWiring
	// turn admits one Call or Stop at a time, in arrival order.
	turn    *sim.Resource
	stopped bool
}

// StartResident acquires an instance of fn on the given PU (cold-starting
// if needed) and wires it for calls. The caller owns the instance until
// Stop.
func (rt *Runtime) StartResident(p *sim.Proc, fn string, pu hw.PUID) (*Resident, error) {
	d, err := rt.Deployment(fn)
	if err != nil {
		return nil, err
	}
	inst, _, err := rt.acquire(p, d, pu, false, nil)
	if err != nil {
		return nil, err
	}
	r := &Resident{rt: rt, insts: [1]*instance{inst}, deps: [1]*Deployment{d}, turn: sim.NewResource(rt.Env, 1)}
	if r.wiring, err = rt.wireChain(p, r.insts[:], nil); err != nil {
		rt.release(p, inst)
		return nil, err
	}
	return r, nil
}

// Call runs one request on the resident instance and returns its latency,
// including any wait behind earlier callers.
func (r *Resident) Call(p *sim.Proc, arg workloads.Arg) (time.Duration, error) {
	start := p.Now()
	r.turn.Acquire(p)
	defer r.turn.Release()
	if r.stopped {
		return 0, fmt.Errorf("molecule: resident %s stopped", r.deps[0].Fn.Name)
	}
	if err := r.wiring.abort.err; err != nil {
		return 0, fmt.Errorf("molecule: resident %s exited: %w", r.deps[0].Fn.Name, err)
	}
	if _, err := r.rt.runGraph(p, r.wiring, r.insts[:], r.deps[:], nil, nil, ChainOptions{Arg: arg}); err != nil {
		return 0, err
	}
	return p.Now().Sub(start), nil
}

// Stop waits for the call in service, releases the wiring and returns the
// instance to the warm pool.
func (r *Resident) Stop(p *sim.Proc) {
	r.turn.Acquire(p)
	defer r.turn.Release()
	if r.stopped {
		return
	}
	r.stopped = true
	r.rt.unwireChain(r.wiring)
	r.wiring = nil
	r.rt.release(p, r.insts[0])
}
