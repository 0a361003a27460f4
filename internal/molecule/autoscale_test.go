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
		done := sim.NewEvent(rt.Env)
		rt.Env.Spawn("slow-req", func(cp *sim.Proc) {
			if _, err := a.Serve(cp, workloads.Arg{}); err != nil {
				t.Error(err)
			}
			done.Trigger(nil)
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
