package molecule

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/localos"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Resident is a warm instance running as a resident server process: it
// blocks on its self_fifo, serves requests one at a time (so concurrent
// callers queue, like a real single-threaded handler), and responds over
// the duplex connection — the steady-state data plane of §4.2's "Molecule
// can assign requests to the child instance".
type Resident struct {
	rt     *Runtime
	fn     string
	inst   *instance
	wiring *chainWiring
	d      *Deployment

	served  int
	stopped bool

	// The server process releases the wiring when it returns, unless a
	// Call or Stop is still using the FIFOs; then the last of those does.
	inflight int
	exited   bool
	exitErr  error // why the server returned, when not on shutdown
}

// StartResident acquires an instance of fn on the given PU (cold-starting
// if needed) and runs it as a resident server. The caller owns the instance
// until Stop.
func (rt *Runtime) StartResident(p *sim.Proc, fn string, pu hw.PUID) (*Resident, error) {
	d, err := rt.Deployment(fn)
	if err != nil {
		return nil, err
	}
	inst, _, err := rt.acquire(p, d, pu, false, nil)
	if err != nil {
		return nil, err
	}
	w, err := rt.wireChain(p, []*instance{inst}, nil)
	if err != nil {
		rt.release(p, inst)
		return nil, err
	}
	r := &Resident{rt: rt, fn: fn, inst: inst, wiring: w, d: d}
	e := &w.edges[0]

	rt.Env.Spawn("resident-"+fn, func(sp *sim.Proc) {
		defer func() {
			r.exited = true
			r.unwireIfIdle()
		}()
		for {
			msg, err := e.req.recv(sp, noDispatch)
			if err != nil {
				r.exitErr = err
				return // connection closed: shut down
			}
			if msg.Kind == "shutdown" {
				return
			}
			sp.Sleep(scaledDispatch(inst.node.pu))
			arg, _ := msg.Meta.(workloads.Arg)
			inst.sb.Inst.Invoke(sp, d.Fn.CPUCost(arg), inst.sb.Forked)
			_, resB := d.Fn.Sizes(arg)
			e.resp.send(sp, localos.Message{Kind: "resp", Payload: payload(resB)})
		}
	})
	return r, nil
}

// unwireIfIdle releases the wiring once the server has returned and no
// caller still holds its FIFOs.
func (r *Resident) unwireIfIdle() {
	if r.exited && r.inflight == 0 && r.wiring != nil {
		r.rt.unwireChain(r.wiring)
		r.wiring = nil
	}
}

// leave ends one Call or Stop's use of the FIFOs.
func (r *Resident) leave() {
	r.inflight--
	r.unwireIfIdle()
}

// Call sends one request to the resident instance and waits for its
// response, returning the request latency. Concurrent callers are served in
// FIFO order by the single-threaded handler.
func (r *Resident) Call(p *sim.Proc, arg workloads.Arg) (time.Duration, error) {
	if r.stopped {
		return 0, fmt.Errorf("molecule: resident %s stopped", r.fn)
	}
	if r.exited {
		return 0, fmt.Errorf("molecule: resident %s exited: %w", r.fn, r.exitErr)
	}
	r.inflight++
	defer r.leave()
	e := &r.wiring.edges[0]
	argB, _ := r.d.Fn.Sizes(arg)
	start := p.Now()
	if err := e.req.send(p, localos.Message{
		Kind: "req", Payload: payload(argB), Meta: arg,
	}); err != nil {
		return 0, err
	}
	if _, err := e.resp.recvShared(p); err != nil {
		return 0, err
	}
	r.served++
	lat := p.Now().Sub(start)
	pr, _ := r.d.ProfileFor(r.inst.node.pu.Kind)
	r.rt.charge(r.inst.rec, r.inst.node.pu.Kind, lat, pr.PricePerMs)
	return lat, nil
}

// Served reports the number of completed requests.
func (r *Resident) Served() int { return r.served }

// PU reports where the resident instance runs.
func (r *Resident) PU() hw.PUID { return r.inst.node.pu.ID }

// Stop shuts the server process down and returns the instance to the warm
// pool.
func (r *Resident) Stop(p *sim.Proc) {
	if r.stopped {
		return
	}
	r.stopped = true
	if !r.exited {
		r.inflight++
		r.wiring.edges[0].req.send(p, localos.Message{Kind: "shutdown"})
		r.leave()
	}
	r.rt.release(p, r.inst)
}
