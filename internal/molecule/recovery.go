package molecule

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/xpu"
)

// ErrUnavailable is returned when an invocation cannot be served: every
// attempt timed out or failed transiently and the retry budget is spent.
// Gateways map it to 503.
var ErrUnavailable = errors.New("molecule: function unavailable")

// RecoveryOptions configure Molecule's failure-recovery policy. The zero
// value disables recovery entirely — Invoke performs a single attempt on
// the exact pre-recovery code path, which is what keeps the no-fault golden
// report byte-identical.
type RecoveryOptions struct {
	// InvokeTimeout bounds one attempt in virtual time; 0 disables the
	// timeout. A timed-out attempt is abandoned (it still runs to
	// completion in the background, but is never billed) and retried.
	InvokeTimeout time.Duration
	// MaxRetries is how many times a transiently-failed attempt is retried;
	// the invocation makes at most MaxRetries+1 attempts.
	MaxRetries int
	// RetryBackoff is the virtual-time delay before the first retry,
	// doubling each retry (exponential backoff). 0 defaults to 1ms.
	RetryBackoff time.Duration
}

// Enabled reports whether any recovery behavior is configured.
func (r RecoveryOptions) Enabled() bool {
	return r.InvokeTimeout > 0 || r.MaxRetries > 0
}

// transientError reports whether err is worth retrying: an injected fault,
// a crashed or partitioned piece of infrastructure, or a timeout. Anything
// else (unknown function, no profile, capacity everywhere exhausted on a
// healthy machine, handler body errors) fails the invocation immediately.
func transientError(err error) bool {
	return errors.Is(err, ErrUnavailable) ||
		errors.Is(err, faults.ErrPUDown) ||
		errors.Is(err, faults.ErrPartitioned) ||
		errors.Is(err, faults.ErrInjected) ||
		errors.Is(err, xpu.ErrNodeDown)
}

// infrastructureError reports whether err means the *placement* is bad —
// the target PU or its links are down — as opposed to a probabilistic
// failure that may succeed on the same PU. Only infrastructure errors
// trigger failover re-placement of a pinned invocation.
func infrastructureError(err error) bool {
	return errors.Is(err, faults.ErrPUDown) ||
		errors.Is(err, faults.ErrPartitioned) ||
		errors.Is(err, xpu.ErrNodeDown) ||
		errors.Is(err, ErrUnavailable) // a timeout: the PU is unresponsive
}

// invokeWithRecovery wraps dispatch with the recovery policy: per-attempt
// timeout, bounded retries with exponential virtual-time backoff, and
// failover — a pinned invocation whose PU's infrastructure failed is
// re-placed onto the deterministic lowest-ordered surviving PU. Exactly one
// successful attempt is settled (billed + recorded), so retries can never
// double-bill.
func (rt *Runtime) invokeWithRecovery(p *sim.Proc, d *Deployment, opts InvokeOptions) (Result, error) {
	rec := rt.Opts.Recovery
	root := rt.obs.Span(opts.Span, "invoke.recover", int(rt.hostID))
	root.SetAttr("fn", d.Fn.Name)
	attemptOpts := opts
	attemptOpts.Span = root
	backoff := rec.RetryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	var lastErr error
	for attempt := 0; attempt <= rec.MaxRetries; attempt++ {
		if attempt > 0 {
			if o := rt.obs; o != nil {
				o.Counter("molecule_invoke_retries_total", obs.L("fn", d.Fn.Name)).Inc()
			}
			bs := rt.obs.Span(root, "retry.backoff", int(rt.hostID))
			p.Sleep(backoff)
			bs.Finish()
			backoff *= 2
			if attemptOpts.PU >= 0 && infrastructureError(lastErr) {
				// Failover: drop the pin and let placeGeneral's
				// deterministic scan pick the lowest-ordered surviving PU.
				p.Tracef("invoke %s: failing over from PU %d", d.Fn.Name, attemptOpts.PU)
				root.SetAttr("failover_from", strconv.Itoa(int(attemptOpts.PU)))
				attemptOpts.PU = -1
				if o := rt.obs; o != nil {
					o.Counter("molecule_failovers_total", obs.L("fn", d.Fn.Name)).Inc()
				}
			}
		}
		// Warm instances stranded on PUs that crashed since the last attempt
		// must not be served (or counted live); reap them first.
		if rt.faults != nil {
			rt.reapCrashed(p)
		}
		res, err := rt.attemptWithTimeout(p, d, attemptOpts)
		if err == nil {
			rt.settleResult(d, &res)
			root.SetAttr("retries", strconv.Itoa(attempt))
			root.SetAttr("pu", strconv.Itoa(int(res.PU)))
			root.Finish()
			return res, nil
		}
		lastErr = err
		if !transientError(err) {
			root.SetAttr("error", err.Error())
			root.Finish()
			return Result{}, err
		}
		p.Tracef("invoke %s: attempt %d failed: %v", d.Fn.Name, attempt+1, err)
	}
	if o := rt.obs; o != nil {
		o.Counter("molecule_invoke_unavailable_total", obs.L("fn", d.Fn.Name)).Inc()
	}
	root.SetAttr("error", lastErr.Error())
	root.Finish()
	if errors.Is(lastErr, ErrUnavailable) {
		return Result{}, fmt.Errorf("molecule: %s failed after %d attempts: %w", d.Fn.Name, rec.MaxRetries+1, lastErr)
	}
	return Result{}, fmt.Errorf("molecule: %s failed after %d attempts: %w: %w", d.Fn.Name, rec.MaxRetries+1, ErrUnavailable, lastErr)
}

// attemptWithTimeout runs one unsettled dispatch, bounded by the configured
// per-invoke timeout. The attempt runs in its own simulation process and
// races the timer on one capacity-1 channel: each side TrySends its outcome
// and the invoker takes whichever arrives first (a tie goes to the timer,
// armed first). On timeout the attempt is *abandoned*, since the kernel has
// no interrupt: it finishes in the background without being settled — its
// instance lands back in the warm pool, nothing is billed, and its outcome
// is dropped with the channel.
func (rt *Runtime) attemptWithTimeout(p *sim.Proc, d *Deployment, opts InvokeOptions) (Result, error) {
	timeout := rt.Opts.Recovery.InvokeTimeout
	if timeout <= 0 {
		return rt.dispatch(p, d, opts, false)
	}
	type outcome struct {
		res      Result
		err      error
		timedOut bool
	}
	first := sim.NewChan[outcome](rt.Env, 1)
	rt.Env.Spawn("invoke-attempt", func(ap *sim.Proc) {
		res, err := rt.dispatch(ap, d, opts, false)
		first.TrySend(outcome{res: res, err: err})
	})
	rt.Env.AfterFunc(timeout, func() { first.TrySend(outcome{timedOut: true}) })
	oc, _ := first.Recv(p)
	if !oc.timedOut {
		return oc.res, oc.err
	}
	if o := rt.obs; o != nil {
		o.Counter("molecule_invoke_timeouts_total", obs.L("fn", d.Fn.Name)).Inc()
	}
	return Result{}, fmt.Errorf("molecule: invoke %s on PU %v timed out after %v: %w",
		d.Fn.Name, hw.PUID(opts.PU), timeout, ErrUnavailable)
}
