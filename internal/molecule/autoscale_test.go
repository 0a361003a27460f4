package molecule

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestAutoScalerServesAtMin(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		a, err := rt.NewAutoScaler(p, "matmul", 0, DefaultAutoScalerOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := a.Serve(p, workloads.Arg{}); err != nil {
				t.Fatal(err)
			}
		}
		cur, peak, outs := a.Stats()
		if cur != 1 || peak != 1 || outs != 0 {
			t.Errorf("sequential load scaled: cur=%d peak=%d outs=%d", cur, peak, outs)
		}
		a.Close(p)
	})
}

func TestAutoScalerScalesOutUnderBurst(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "pyaes"); err != nil { // 19.5ms exec
			t.Fatal(err)
		}
		opts := DefaultAutoScalerOptions()
		opts.TargetQueue = 2 * time.Millisecond
		opts.Max = 8
		a, err := rt.NewAutoScaler(p, "pyaes", 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		// A burst of 8 concurrent requests against 1 resident.
		wg := sim.NewWaitGroup(rt.Env)
		var worst time.Duration
		for i := 0; i < 8; i++ {
			wg.Add(1)
			rt.Env.Spawn("req", func(cp *sim.Proc) {
				defer wg.Done()
				lat, err := a.Serve(cp, workloads.Arg{})
				if err != nil {
					t.Error(err)
					return
				}
				if lat > worst {
					worst = lat
				}
			})
		}
		wg.Wait(p)
		_, peak, outs := a.Stats()
		if peak < 3 {
			t.Errorf("peak residents = %d, want scale-out under burst", peak)
		}
		if outs == 0 {
			t.Error("no scale-outs recorded")
		}
		// With scale-out, the worst request must beat full serialization
		// (8 x ~20ms) despite cold starts.
		if worst > 120*time.Millisecond {
			t.Errorf("worst latency %v — scale-out ineffective", worst)
		}
		a.Close(p)
	})
}

func TestAutoScalerRespectsMax(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "pyaes"); err != nil {
			t.Fatal(err)
		}
		opts := DefaultAutoScalerOptions()
		opts.TargetQueue = time.Millisecond
		opts.Max = 2
		a, err := rt.NewAutoScaler(p, "pyaes", 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		wg := sim.NewWaitGroup(rt.Env)
		for i := 0; i < 6; i++ {
			wg.Add(1)
			rt.Env.Spawn("req", func(cp *sim.Proc) {
				defer wg.Done()
				if _, err := a.Serve(cp, workloads.Arg{}); err != nil {
					t.Error(err)
				}
			})
		}
		wg.Wait(p)
		if cur, peak, _ := a.Stats(); cur > 2 || peak > 2 {
			t.Errorf("pool exceeded Max: cur=%d peak=%d", cur, peak)
		}
		a.Close(p)
	})
}

func TestAutoScalerUndeployed(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if _, err := rt.NewAutoScaler(p, "nope", 0, DefaultAutoScalerOptions()); err == nil {
			t.Error("autoscaler for undeployed function created")
		}
	})
}

// TestAutoScalerCloseWithInFlightRequest: a request completing after Close
// must not panic; its resident parks on the idle list.
func TestAutoScalerCloseWithInFlightRequest(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "pyaes"); err != nil {
			t.Fatal(err)
		}
		a, err := rt.NewAutoScaler(p, "pyaes", 0, DefaultAutoScalerOptions())
		if err != nil {
			t.Fatal(err)
		}
		done := sim.NewWaitGroup(rt.Env)
		done.Add(1)
		rt.Env.Spawn("slow-req", func(cp *sim.Proc) {
			if _, err := a.Serve(cp, workloads.Arg{}); err != nil {
				t.Error(err)
			}
			done.Done()
		})
		p.Sleep(time.Millisecond) // request takes the only resident
		a.Close(p)                // operator tears down mid-flight
		done.Wait(p)              // the request still completes cleanly
	})
}

// TestAutoScalerStartFailureStopsResidents: when NewAutoScaler cannot start
// its Min-th resident, it stops the ones it started, so their wiring is
// released and their instances go back to the warm pool.
func TestAutoScalerStartFailureStopsResidents(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "pyaes", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		status := func() NodeStatus {
			for _, st := range rt.Snapshot() {
				if st.PU == dpu {
					return st
				}
			}
			t.Fatalf("no PU %d in the snapshot", dpu)
			return NodeStatus{}
		}
		want := countWiring(rt)
		opts := DefaultAutoScalerOptions()
		opts.Min = status().Capacity + 1
		opts.Max = opts.Min
		if _, err := rt.NewAutoScaler(p, "pyaes", dpu, opts); err == nil {
			t.Fatalf("autoscaler started %d residents on a PU that holds %d", opts.Min, opts.Min-1)
		}
		if got := countWiring(rt); got != want {
			t.Errorf("counts %+v, want %+v", got, want)
		}
		if st := status(); st.Live != st.Warm {
			t.Errorf("DPU has %d live instances, %d warm: started residents were not stopped", st.Live, st.Warm)
		}
	})
}

// pyaesScaler deploys pyaes and starts its autoscaler with Min 1, Max 2 and
// the given TargetQueue.
func pyaesScaler(t *testing.T, p *sim.Proc, rt *Runtime, targetQueue time.Duration) *AutoScaler {
	t.Helper()
	if err := rt.Deploy(p, "pyaes"); err != nil {
		t.Fatal(err)
	}
	a, err := rt.NewAutoScaler(p, "pyaes", 0, AutoScalerOptions{Min: 1, Max: 2, TargetQueue: targetQueue})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// asRequest is one request served through an autoscaler: it arrives after
// a delay and records when Serve returned and with what error.
type asRequest struct {
	done sim.Time
	err  error
}

// serveAfter spawns req's process, in spawn order among same-instant
// arrivals, and marks wg done when Serve returns.
func serveAfter(rt *Runtime, wg *sim.WaitGroup, a *AutoScaler, delay time.Duration, req *asRequest) {
	wg.Add(1)
	rt.Env.Spawn("req", func(cp *sim.Proc) {
		defer wg.Done()
		cp.Sleep(delay)
		_, req.err = a.Serve(cp, workloads.Arg{})
		req.done = cp.Now()
	})
}

// TestAutoScalerServesInArrivalOrder: A holds the only resident; B (timed,
// below Max) and C (at Max) queue at the same instant, B first. A's
// resident goes to B, then B's to C, with no scale-out.
func TestAutoScalerServesInArrivalOrder(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		a := pyaesScaler(t, p, rt, time.Second)
		wg := sim.NewWaitGroup(rt.Env)
		var reqs [3]asRequest // A, B, C
		for i, delay := range []time.Duration{0, time.Millisecond, time.Millisecond} {
			serveAfter(rt, wg, a, delay, &reqs[i])
		}
		wg.Wait(p)
		for i, r := range reqs {
			if r.err != nil {
				t.Fatalf("request %c: %v", 'A'+i, r.err)
			}
		}
		if a, b, c := reqs[0].done, reqs[1].done, reqs[2].done; !(a < b && b < c) {
			t.Errorf("finish times A=%v B=%v C=%v, want arrival order", a, b, c)
		}
		if _, _, outs := a.Stats(); outs != 0 {
			t.Errorf("scale-outs = %d, want 0", outs)
		}
		a.Close(p)
	})
}

// TestAutoScalerCloseFailsQueuedRequests: a timed request still queued at
// Close fails at once, as an at-Max waiter does, rather than waiting out
// its deadline and scaling out a closed autoscaler; so does a request that
// arrives after Close.
func TestAutoScalerCloseFailsQueuedRequests(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		const closed = "molecule: autoscaler for pyaes closed"
		a := pyaesScaler(t, p, rt, 5*time.Millisecond)
		wg := sim.NewWaitGroup(rt.Env)
		var reqA, reqB asRequest
		serveAfter(rt, wg, a, 0, &reqA)
		serveAfter(rt, wg, a, time.Millisecond, &reqB)
		p.Sleep(2 * time.Millisecond)
		closedAt := p.Now()
		a.Close(p)
		wg.Wait(p)
		if reqA.err != nil {
			t.Errorf("in-flight request A: %v", reqA.err)
		}
		if reqB.err == nil || reqB.err.Error() != closed {
			t.Errorf("queued request B: err = %v, want %q", reqB.err, closed)
		}
		if reqB.done != closedAt {
			t.Errorf("queued request B returned at %v, want %v (Close)", reqB.done, closedAt)
		}
		start := p.Now()
		if _, err := a.Serve(p, workloads.Arg{}); err == nil || err.Error() != closed || p.Now() != start {
			t.Errorf("request after Close: err = %v at +%v, want %q at once", err, p.Now().Sub(start), closed)
		}
		if cur, _, outs := a.Stats(); cur != 0 || outs != 0 {
			t.Errorf("after Close: residents = %d, scale-outs = %d, want 0 and 0", cur, outs)
		}
	})
}

// TestAutoScalerDeadlineTie pins the first-of wait at its tie instant: B's
// deadline falls 1 ns before A's release, exactly on it, or 1 ns after.
// A deadline at or before the release scales out, and A's resident goes
// idle; one after it hands A's resident to B.
func TestAutoScalerDeadlineTie(t *testing.T) {
	const arrival = time.Millisecond // B arrives this long after A
	var release time.Duration        // A's Serve latency: it releases when Serve returns
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		a := pyaesScaler(t, p, rt, time.Second)
		lat, err := a.Serve(p, workloads.Arg{})
		if err != nil {
			t.Fatal(err)
		}
		release = lat
		a.Close(p)
	})
	for _, tc := range []struct {
		name              string
		delta             time.Duration
		idle, total, outs int
	}{
		{"-1ns", -1, 2, 2, 1},
		{"exact", 0, 2, 2, 1},
		{"+1ns", 1, 1, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
				a := pyaesScaler(t, p, rt, release-arrival+tc.delta)
				wg := sim.NewWaitGroup(rt.Env)
				var reqA, reqB asRequest
				serveAfter(rt, wg, a, 0, &reqA)
				serveAfter(rt, wg, a, arrival, &reqB)
				wg.Wait(p)
				if reqA.err != nil || reqB.err != nil {
					t.Fatalf("A: %v, B: %v", reqA.err, reqB.err)
				}
				if cur, _, outs := a.Stats(); len(a.idle) != tc.idle || cur != tc.total || outs != tc.outs {
					t.Errorf("idle %d, total %d, scale-outs %d; want %d, %d, %d",
						len(a.idle), cur, outs, tc.idle, tc.total, tc.outs)
				}
				a.Close(p)
			})
		})
	}
}
