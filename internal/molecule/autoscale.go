package molecule

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// AutoScalerOptions tune a function's resident-pool autoscaler.
type AutoScalerOptions struct {
	// Min and Max bound the resident pool size.
	Min, Max int
	// TargetQueue is the queueing-delay threshold that triggers scale-out:
	// when a request waits longer than this for a free resident, a new one
	// is started (cold start off the request path).
	TargetQueue time.Duration
}

// DefaultAutoScalerOptions returns sane bounds.
func DefaultAutoScalerOptions() AutoScalerOptions {
	return AutoScalerOptions{Min: 1, Max: 32, TargetQueue: 5 * time.Millisecond}
}

// AutoScaler maintains a pool of resident instances for one function,
// growing it when requests queue — the scale-out loop a serverless
// platform runs per function. A request that finds no idle resident queues
// a capacity-1 slot and receives on it: a freed resident goes to the oldest
// slot, and a timed request's deadline takes its slot out of the queue and
// sends nil, which means scale out. Close closes every queued slot.
type AutoScaler struct {
	rt   *Runtime
	fn   string
	pu   hw.PUID
	opts AutoScalerOptions

	idle     []*Resident
	total    int
	reserved int                    // scale-outs in flight, counted against Max
	queue    []*sim.Chan[*Resident] // waiting requests' slots, oldest first

	scaleOuts   int
	maxObserved int
	closed      bool
}

// NewAutoScaler builds an autoscaler for fn on the given PU (use -1 for
// placement policy), pre-starting Min residents.
func (rt *Runtime) NewAutoScaler(p *sim.Proc, fn string, pu hw.PUID, opts AutoScalerOptions) (*AutoScaler, error) {
	if _, err := rt.Deployment(fn); err != nil {
		return nil, err
	}
	if opts.Min < 1 {
		opts.Min = 1
	}
	if opts.Max < opts.Min {
		opts.Max = opts.Min
	}
	a := &AutoScaler{rt: rt, fn: fn, pu: pu, opts: opts}
	for i := 0; i < opts.Min; i++ {
		r, err := rt.StartResident(p, fn, pu)
		if err != nil {
			for _, r := range a.idle {
				r.Stop(p)
			}
			return nil, err
		}
		a.idle = append(a.idle, r)
		a.total++
	}
	a.maxObserved = a.total
	return a, nil
}

// Stats reports (current residents, peak residents, scale-outs).
func (a *AutoScaler) Stats() (current, peak, outs int) {
	return a.total, a.maxObserved, a.scaleOuts
}

// Serve handles one request: take an idle resident, or wait TargetQueue for
// one and scale out if none frees up. Returns the end-to-end latency
// including queueing.
func (a *AutoScaler) Serve(p *sim.Proc, arg workloads.Arg) (time.Duration, error) {
	start := p.Now()
	r, err := a.obtain(p)
	if err != nil {
		return 0, err
	}
	if _, err := r.Call(p, arg); err != nil {
		return 0, err
	}
	a.replace(p, r)
	return p.Now().Sub(start), nil
}

// obtain returns an idle resident, waiting up to TargetQueue before scaling
// out (or indefinitely once at Max). It fails once the autoscaler is closed.
func (a *AutoScaler) obtain(p *sim.Proc) (*Resident, error) {
	if a.closed {
		return nil, a.errClosed()
	}
	if len(a.idle) > 0 {
		r := a.idle[len(a.idle)-1]
		a.idle = a.idle[:len(a.idle)-1]
		return r, nil
	}
	slot := sim.NewChan[*Resident](a.rt.Env, 1)
	a.queue = append(a.queue, slot)
	timed := a.total+a.reserved < a.opts.Max
	if timed {
		a.reserved++ // hold a slot against concurrent scale-outs
		a.rt.Env.AfterFunc(a.opts.TargetQueue, func() {
			if i := slices.Index(a.queue, slot); i >= 0 {
				a.queue = slices.Delete(a.queue, i, i+1)
				slot.TrySend(nil)
			}
		})
	}
	r, ok := slot.Recv(p)
	var err error
	if ok && r == nil { // the deadline passed: scale out off the idle path
		if r, err = a.rt.StartResident(p, a.fn, a.pu); err == nil {
			a.total++
			a.scaleOuts++
			if o := a.rt.obs; o != nil {
				o.Counter("molecule_autoscale_scale_outs_total", obs.L("fn", a.fn)).Inc()
			}
			a.maxObserved = max(a.maxObserved, a.total)
		}
	}
	if timed {
		a.reserved--
	}
	if !ok {
		return nil, a.errClosed()
	}
	return r, err
}

func (a *AutoScaler) errClosed() error { return fmt.Errorf("molecule: autoscaler for %s closed", a.fn) }

// replace returns a resident to the pool, handing it to the oldest queued
// request when there is one. After Close, late completions retire their
// resident so no instance or wiring leaks.
func (a *AutoScaler) replace(p *sim.Proc, r *Resident) {
	if a.closed {
		r.Stop(p)
		a.total--
		return
	}
	if len(a.queue) > 0 {
		slot := a.queue[0]
		a.queue = slices.Delete(a.queue, 0, 1)
		slot.TrySend(r)
		return
	}
	a.idle = append(a.idle, r)
}

// Close stops every idle resident; in-flight residents retire as their
// requests complete.
func (a *AutoScaler) Close(p *sim.Proc) {
	if a.closed {
		return
	}
	a.closed = true
	for _, r := range a.idle {
		r.Stop(p)
		a.total--
	}
	a.idle = nil
	for _, slot := range a.queue {
		slot.Close()
	}
	a.queue = nil
}
