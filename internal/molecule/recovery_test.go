package molecule

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

func recoveryOpts(rec RecoveryOptions) Options {
	opts := DefaultOptions()
	opts.Recovery = rec
	return opts
}

// TestRetryThenSucceedBillsOnce: an invocation pinned to a crashed DPU fails
// fast, retries with failover, and succeeds on the host — producing exactly
// one billing entry and one invocation record.
func TestRetryThenSucceedBillsOnce(t *testing.T) {
	opts := recoveryOpts(RecoveryOptions{MaxRetries: 3, RetryBackoff: 5 * time.Millisecond})
	run(t, hw.Config{DPUs: 1}, opts, func(p *sim.Proc, rt *Runtime) {
		o := obs.New(rt.Env)
		rt.SetObserver(o)
		pl := faults.NewPlan(rt.Env, 1)
		rt.AttachFaults(pl)
		if err := rt.Deploy(p, "matmul", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		pl.Kill(dpu)
		res, err := rt.Invoke(p, "matmul", InvokeOptions{PU: dpu})
		if err != nil {
			t.Fatalf("invoke with recovery failed: %v", err)
		}
		if res.PU != 0 {
			t.Errorf("recovered invoke ran on PU %d, want host 0", res.PU)
		}
		if got := rt.Billing().Count(); got != 1 {
			t.Errorf("billing entries = %d, want exactly 1", got)
		}
		if got := o.Counter("molecule_invoke_retries_total", obs.L("fn", "matmul")).Value(); got != 1 {
			t.Errorf("retries counter = %d, want 1", got)
		}
		if got := o.Counter("molecule_failovers_total", obs.L("fn", "matmul")).Value(); got != 1 {
			t.Errorf("failovers counter = %d, want 1", got)
		}
	})
}

// TestFailoverLandsOnLowestSurvivingPU: with the preferred DPU down, the
// re-placed invocation deterministically lands on the lowest-ordered
// surviving PU of a supported kind, and the dead PU's stranded warm
// instances are evicted rather than served.
func TestFailoverLandsOnLowestSurvivingPU(t *testing.T) {
	opts := recoveryOpts(RecoveryOptions{MaxRetries: 2, RetryBackoff: time.Millisecond})
	run(t, hw.Config{DPUs: 2}, opts, func(p *sim.Proc, rt *Runtime) {
		o := obs.New(rt.Env)
		rt.SetObserver(o)
		pl := faults.NewPlan(rt.Env, 1)
		rt.AttachFaults(pl)
		// DPU-only profile: the host CPU cannot absorb the failover, so the
		// placement scan must pick the next DPU by PU-ID order.
		if err := rt.Deploy(p, "matmul", DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		dpus := rt.Machine.PUsOfKind(hw.DPU)
		first, second := dpus[0].ID, dpus[1].ID
		// Warm an instance on the first DPU, then crash it.
		if _, err := rt.Invoke(p, "matmul", InvokeOptions{PU: first}); err != nil {
			t.Fatal(err)
		}
		pl.Kill(first)
		res, err := rt.Invoke(p, "matmul", InvokeOptions{PU: first})
		if err != nil {
			t.Fatalf("failover invoke failed: %v", err)
		}
		if res.PU != second {
			t.Errorf("failover landed on PU %d, want lowest surviving DPU %d", res.PU, second)
		}
		if !res.Cold {
			t.Error("failover invoke served warm on a PU that had no instance")
		}
		// The crashed DPU's warm instance was reaped, not served.
		if got := rt.Node(first).liveCount; got != 0 {
			t.Errorf("dead PU live count = %d, want 0", got)
		}
		if got := o.Counter("molecule_crash_evictions_total", puLabel(first), obs.L("fn", "matmul")).Value(); got != 1 {
			t.Errorf("crash evictions = %d, want 1", got)
		}
		// Revival restores the original placement preference.
		pl.Revive(first)
		res, err = rt.Invoke(p, "matmul", InvokeOptions{PU: first})
		if err != nil {
			t.Fatalf("post-revive invoke failed: %v", err)
		}
		if res.PU != first {
			t.Errorf("post-revive invoke on PU %d, want %d", res.PU, first)
		}
	})
}

// TestTimeoutZeroRetriesSurfacesUnavailable: a timed-out attempt with no
// retry budget returns a typed ErrUnavailable; the abandoned attempt
// finishes in the background without ever being billed. Its tie subtests
// pin the race between the attempt and its timer at the tie instant.
func TestTimeoutZeroRetriesSurfacesUnavailable(t *testing.T) {
	opts := recoveryOpts(RecoveryOptions{InvokeTimeout: time.Millisecond})
	var rt2 *Runtime
	var o *obs.Observer
	run(t, hw.Config{}, opts, func(p *sim.Proc, rt *Runtime) {
		rt2 = rt
		o = obs.New(rt.Env)
		rt.SetObserver(o)
		if err := rt.Deploy(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		// A cold start takes ~30ms, far beyond the 1ms budget.
		_, err := rt.Invoke(p, "matmul", DefaultInvokeOptions())
		if err == nil {
			t.Fatal("invoke succeeded despite 1ms timeout")
		}
		if !errors.Is(err, ErrUnavailable) {
			t.Errorf("error %v does not wrap ErrUnavailable", err)
		}
		if got := o.Counter("molecule_invoke_timeouts_total", obs.L("fn", "matmul")).Value(); got != 1 {
			t.Errorf("timeouts counter = %d, want 1", got)
		}
		if got := o.Counter("molecule_invoke_unavailable_total", obs.L("fn", "matmul")).Value(); got != 1 {
			t.Errorf("unavailable counter = %d, want 1", got)
		}
	})
	// run() has drained the event loop: the abandoned attempt completed in
	// the background. It must not have produced a billing entry.
	if got := rt2.Billing().Count(); got != 0 {
		t.Errorf("abandoned attempt produced %d billing entries, want 0", got)
	}

	// The budget is a warm pyaes invoke's latency, measured here, shifted
	// by delta: a timer that fires at or before the attempt's end wins.
	warmPyaes := func(t *testing.T, p *sim.Proc, rt *Runtime) time.Duration {
		if err := rt.Deploy(p, "pyaes"); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Invoke(p, "pyaes", DefaultInvokeOptions()); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		if _, err := rt.Invoke(p, "pyaes", DefaultInvokeOptions()); err != nil {
			t.Fatal(err)
		}
		return p.Now().Sub(start)
	}
	var warm time.Duration
	run(t, hw.Config{}, recoveryOpts(RecoveryOptions{InvokeTimeout: time.Second}), func(p *sim.Proc, rt *Runtime) {
		warm = warmPyaes(t, p, rt)
	})
	for _, tc := range []struct {
		name     string
		delta    time.Duration
		timedOut bool
	}{
		{"tie/-1ns", -1, true},
		{"tie/exact", 0, true},
		{"tie/+1ns", 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rt2 *Runtime
			run(t, hw.Config{}, recoveryOpts(RecoveryOptions{InvokeTimeout: time.Second}), func(p *sim.Proc, rt *Runtime) {
				rt2 = rt
				warmPyaes(t, p, rt) // bills its cold and its warm invoke
				rt.Opts.Recovery.InvokeTimeout = warm + tc.delta
				start := p.Now()
				_, err := rt.Invoke(p, "pyaes", DefaultInvokeOptions())
				if tc.timedOut {
					if !errors.Is(err, ErrUnavailable) {
						t.Errorf("error %v does not wrap ErrUnavailable", err)
					}
					if got, want := p.Now().Sub(start), warm+tc.delta; got != want {
						t.Errorf("timed out after %v, want %v", got, want)
					}
				} else if err != nil {
					t.Errorf("invoke within budget failed: %v", err)
				}
			})
			want := 3
			if tc.timedOut {
				want = 2
			}
			if got := rt2.Billing().Count(); got != want {
				t.Errorf("billing entries = %d, want %d", got, want)
			}
		})
	}
}

// TestRecoveryDisabledIsSingleAttempt: the zero-value RecoveryOptions keep
// Invoke on the single-attempt path — a pinned-down PU fails immediately
// with no retries, preserving pre-recovery behavior.
func TestRecoveryDisabledIsSingleAttempt(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		o := obs.New(rt.Env)
		rt.SetObserver(o)
		pl := faults.NewPlan(rt.Env, 1)
		rt.AttachFaults(pl)
		if err := rt.Deploy(p, "matmul", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		pl.Kill(dpu)
		start := p.Now()
		_, err := rt.Invoke(p, "matmul", InvokeOptions{PU: dpu})
		if !errors.Is(err, faults.ErrPUDown) {
			t.Errorf("error %v does not wrap ErrPUDown", err)
		}
		if p.Now() != start {
			t.Error("failed single attempt consumed virtual time")
		}
		if got := o.Counter("molecule_invoke_retries_total", obs.L("fn", "matmul")).Value(); got != 0 {
			t.Errorf("retries counter = %d with recovery disabled, want 0", got)
		}
	})
}

// TestNonTransientErrorNotRetried: a deploy-level error (no profile for the
// pinned kind) is permanent and must not burn the retry budget.
func TestNonTransientErrorNotRetried(t *testing.T) {
	opts := recoveryOpts(RecoveryOptions{MaxRetries: 5, RetryBackoff: time.Millisecond})
	run(t, hw.Config{DPUs: 1}, opts, func(p *sim.Proc, rt *Runtime) {
		o := obs.New(rt.Env)
		rt.SetObserver(o)
		if err := rt.Deploy(p, "matmul"); err != nil { // CPU profile only
			t.Fatal(err)
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		if _, err := rt.Invoke(p, "matmul", InvokeOptions{PU: dpu}); err == nil {
			t.Fatal("invoke with unsupported profile succeeded")
		}
		if got := o.Counter("molecule_invoke_retries_total", obs.L("fn", "matmul")).Value(); got != 0 {
			t.Errorf("permanent error was retried %d times", got)
		}
	})
}

// TestKeepAliveClockNeverRewinds: greedy-dual aging must be monotonic.
// Evicting a victim whose (stale) priority predates the current clock used
// to rewind the clock, deflating every later admission's priority.
func TestKeepAliveClockNeverRewinds(t *testing.T) {
	ka := newKeepAlive(1)
	ka.hit("old") // pri = 1 at clock 0
	ka.clock = 5  // prior evictions advanced the clock
	n := &puNode{}
	fillPool(n, recOn(n, ka, "old"), 1)
	newPool := fillPool(n, recOn(n, ka, "new"), 1)
	if victim := ka.admit(newPool, n); victim == nil || victim.rec.name != "old" {
		t.Fatalf("admit evicted %v, want the old instance", victim)
	}
	if victim := ka.evict(n); victim != nil {
		t.Fatalf("evicted a second instance (%s) under cap 1", victim.rec.name)
	}
	if ka.stat("old").pri >= ka.stat("new").pri {
		t.Fatalf("victim selection wrong: old pri %.1f, new pri %.1f",
			ka.stat("old").pri, ka.stat("new").pri)
	}
	if ka.clock != 5 {
		t.Errorf("clock = %.1f after evicting a stale victim, want 5 (no rewind)", ka.clock)
	}
	// And the clock still advances normally for victims ahead of it.
	ka.setCost(ka.stat("rich"), 100)
	ka.hit("rich") // pri = 5 + 100 = 105
	rich := fillPool(n, recOn(n, ka, "rich"), 1)
	ka.admit(rich, n) // rich re-admitted; victim is "new" (pri 6)
	if ka.clock != 6 {
		t.Errorf("clock = %.1f, want 6 (advanced to victim priority)", ka.clock)
	}
}

// fillPool adds k idle instances of r's function to node n's pool record,
// the way release does before it admits, and returns the record.
func fillPool(n *puNode, r *funcRec, k int) *warmPool {
	wp := n.ensurePool(r)
	for i := 0; i < k; i++ {
		wp.insts = append(wp.insts, &instance{rec: r, node: n})
		n.warmCount++
	}
	return wp
}
