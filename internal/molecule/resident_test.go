package molecule

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestResidentServesRequests(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "matmul"); err != nil {
			t.Fatal(err)
		}
		r, err := rt.StartResident(p, "matmul", 0)
		if err != nil {
			t.Fatal(err)
		}
		lat1, err := r.Call(p, workloads.Arg{})
		if err != nil {
			t.Fatal(err)
		}
		lat2, err := r.Call(p, workloads.Arg{})
		if err != nil {
			t.Fatal(err)
		}
		// Steady-state calls: dispatch + exec, no startup. The first call
		// also pays the forked instance's copy-on-write fault penalty.
		if want := 2196 * time.Microsecond; lat1 != want {
			t.Errorf("first call = %v, want %v", lat1, want)
		}
		if want := 1596 * time.Microsecond; lat2 != want {
			t.Errorf("steady call = %v, want %v", lat2, want)
		}
		r.Stop(p)
		if _, err := r.Call(p, workloads.Arg{}); err == nil {
			t.Error("call after Stop succeeded")
		}
		r.Stop(p) // idempotent
	})
}

// TestResidentQueueing: a single-threaded resident serializes concurrent
// callers, so the k-th caller waits k whole calls.
func TestResidentQueueing(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "pyaes"); err != nil { // 19.5ms exec
			t.Fatal(err)
		}
		r, err := rt.StartResident(p, "pyaes", 0)
		if err != nil {
			t.Fatal(err)
		}
		const callers = 6
		lats := make([]time.Duration, callers)
		wg := sim.NewWaitGroup(rt.Env)
		for i := 0; i < callers; i++ {
			i := i
			wg.Add(1)
			rt.Env.Spawn("caller", func(cp *sim.Proc) {
				defer wg.Done()
				lat, err := r.Call(cp, workloads.Arg{})
				if err != nil {
					t.Error(err)
					return
				}
				lats[i] = lat
			})
		}
		wg.Wait(p)
		// The first call pays the copy-on-write fault penalty; each later
		// one waits for the calls ahead of it, 19.696ms each.
		for k, lat := range lats {
			if want := 20296*time.Microsecond + time.Duration(k)*19696*time.Microsecond; lat != want {
				t.Errorf("caller %d latency = %v, want %v", k, lat, want)
			}
		}
		r.Stop(p)
	})
}

// TestResidentStopWaitsForCall: each of several queued calls is billed its
// handler time, not the queueing ahead of it; and Stop waits for the call
// in service, so the instance goes back to the warm pool idle and the next
// Invoke, which takes it warm, starts after that call.
func TestResidentStopWaitsForCall(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "pyaes"); err != nil {
			t.Fatal(err)
		}
		r, err := rt.StartResident(p, "pyaes", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Call(p, workloads.Arg{}); err != nil { // pays the COW penalty
			t.Fatal(err)
		}
		const callers = 6
		billed := make([]time.Duration, callers)
		wg := sim.NewWaitGroup(rt.Env)
		for i := 0; i < callers; i++ {
			i := i
			wg.Add(1)
			rt.Env.Spawn("caller", func(cp *sim.Proc) {
				defer wg.Done()
				if _, err := r.Call(cp, workloads.Arg{}); err != nil {
					t.Error(err)
					return
				}
				e, _ := rt.Billing().Last()
				billed[i] = e.Duration
			})
		}
		wg.Wait(p)
		for i, d := range billed {
			if d != billed[0] || d >= 19696*time.Microsecond {
				t.Errorf("caller %d billed %v, want every caller's handler time, under one 19.696ms call (caller 0: %v)", i, d, billed[0])
			}
		}

		var callEnd sim.Time
		rt.Env.Spawn("caller", func(cp *sim.Proc) {
			if _, err := r.Call(cp, workloads.Arg{}); err != nil {
				t.Error(err)
			}
			callEnd = cp.Now()
		})
		p.Sleep(2 * time.Millisecond)
		r.Stop(p)
		if callEnd == 0 {
			t.Fatalf("Stop returned at %v with the call in service", p.Now())
		}
		start := p.Now()
		res, err := rt.Invoke(p, "pyaes", DefaultInvokeOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Cold || start < callEnd {
			t.Errorf("Invoke at %v (cold %v), want a warm one after the call's end at %v", start, res.Cold, callEnd)
		}
	})
}

// TestResidentScaleOut: two residents on different PUs halve the makespan
// of a request batch versus one resident.
func TestResidentScaleOut(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "pyaes"); err != nil {
			t.Fatal(err)
		}
		batch := func(rs []*Resident, calls int) time.Duration {
			start := p.Now()
			wg := sim.NewWaitGroup(rt.Env)
			for i := 0; i < calls; i++ {
				i := i
				wg.Add(1)
				rt.Env.Spawn("c", func(cp *sim.Proc) {
					defer wg.Done()
					if _, err := rs[i%len(rs)].Call(cp, workloads.Arg{}); err != nil {
						t.Error(err)
					}
				})
			}
			wg.Wait(p)
			return p.Now().Sub(start)
		}
		r1, err := rt.StartResident(p, "pyaes", 0)
		if err != nil {
			t.Fatal(err)
		}
		one := batch([]*Resident{r1}, 8)
		r2, err := rt.StartResident(p, "pyaes", 0)
		if err != nil {
			t.Fatal(err)
		}
		two := batch([]*Resident{r1, r2}, 8)
		ratio := float64(one) / float64(two)
		if ratio < 1.7 || ratio > 2.3 {
			t.Errorf("scale-out speedup = %.2f, want ~2x (one=%v two=%v)", ratio, one, two)
		}
		r1.Stop(p)
		r2.Stop(p)
	})
}

func TestResidentOnDPUViaNIPC(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "matmul", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		r, err := rt.StartResident(p, "matmul", dpu)
		if err != nil {
			t.Fatal(err)
		}
		if pu := r.insts[0].node.pu.ID; pu != dpu {
			t.Errorf("resident on PU %d, want DPU %d", pu, dpu)
		}
		// DPU exec (8.8ms) + nIPC round trip: well under the baseline
		// network path, above the local-CPU latency.
		for i, want := range []time.Duration{9905050 * time.Nanosecond, 9305050 * time.Nanosecond} {
			lat, err := r.Call(p, workloads.Arg{})
			if err != nil {
				t.Fatal(err)
			}
			if lat != want {
				t.Errorf("DPU resident call %d = %v, want %v", i, lat, want)
			}
		}
		r.Stop(p)
	})
}

func TestStartResidentUndeployed(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if _, err := rt.StartResident(p, "nope", 0); err == nil {
			t.Error("resident for undeployed function started")
		}
	})
}
