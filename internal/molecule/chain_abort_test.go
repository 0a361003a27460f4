package molecule

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/xpu"
)

// TestInvokeChainMidChainCrashUnwinds kills the DPU of a warm cross-PU chain
// at several points while the chain is in flight. Whichever stage hits the
// crash first must abort the whole chain: InvokeChain returns that error
// (wrapping xpu.ErrNodeDown), and no stage process stays parked on a FIFO
// whose peer will never answer.
func TestInvokeChainMidChainCrashUnwinds(t *testing.T) {
	killAfter := []time.Duration{
		100 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond,
	}
	for _, after := range killAfter {
		t.Run(after.String(), func(t *testing.T) {
			env := sim.NewEnv()
			m := hw.Build(env, hw.Config{DPUs: 1})
			returned := false
			var chainErr error
			env.Spawn("driver", func(p *sim.Proc) {
				rt, err := New(p, m, workloads.NewRegistry(), DefaultOptions())
				if err != nil {
					t.Error(err)
					return
				}
				chain := workloads.AlexaChain()
				for _, fn := range chain {
					if err := rt.Deploy(p, fn, DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
						t.Error(err)
						return
					}
				}
				dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
				opts := ChainOptions{Placement: []hw.PUID{0, dpu, 0, dpu, 0}}
				if _, err := rt.InvokeChain(p, chain, opts); err != nil {
					t.Errorf("warm-up chain: %v", err)
					return
				}
				pl := faults.NewPlan(env, 1)
				rt.AttachFaults(pl)
				env.AfterFunc(after, func() { pl.Kill(dpu) })
				_, chainErr = rt.InvokeChain(p, chain, opts)
				returned = true
			})
			env.Run()
			if !returned {
				t.Fatalf("InvokeChain never returned; blocked procs: %v", env.BlockedProcs())
			}
			if !errors.Is(chainErr, xpu.ErrNodeDown) {
				t.Errorf("InvokeChain error = %v, want one wrapping xpu.ErrNodeDown", chainErr)
			}
			if n := env.LiveProcs(); n != 0 {
				t.Errorf("%d procs still live after the aborted chain: %v", n, env.BlockedProcs())
			}
		})
	}
}
