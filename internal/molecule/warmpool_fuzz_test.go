package molecule

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// fuzzFns are the functions FuzzWarmPools deploys, undeploys and invokes.
var fuzzFns = [...]string{"helloworld", "pyaes", "dd", "matmul"}

// Warm-pool operations, one per input byte (low nibble, modulo the count);
// the next byte, where one is read, picks the function, PU or chain.
const (
	opDeploy      = iota // (re)deploy with a CPU, DPU or both profile
	opUndeploy           // undeploy, if deployed
	opInvokeCold         // ForceCold invoke, pinned or placed
	opInvokeWarm         // plain invoke, pinned or placed
	opInvokeAsync        // invoke from a background process, still running after this step
	opKill               // kill a DPU's executor
	opCrash              // crash a PU, reap it, revive it
	opPlace              // PlaceChain under every policy, against the reference
	opCapacity           // set a general-purpose PU's capacity to 0-4
	opSleep              // let background invocations progress
	numOps
)

// FuzzWarmPools decodes bytes into deploy, redeploy, undeploy, cold and warm
// invocations (some still running when the next step starts), executor
// kills, crash reaps and PlaceChain calls on a runtime with one or two DPUs
// and KeepWarmPerPU 2. After every step the per-function warm counts must
// equal the pools, each node's index slots must agree with its name-ordered
// list, and PlaceChain must equal the name-based reference. At the end,
// with every invocation finished, every live instance must be pooled.
func FuzzWarmPools(f *testing.F) {
	f.Add([]byte{0x01, opDeploy, 0x02, opInvokeWarm, 0x00, opInvokeWarm, 0x00, opPlace, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := hw.Config{DPUs: 1 + int(data[0]&1)}
		data = data[1:]
		env := sim.NewEnv()
		m := hw.Build(env, cfg)
		var failure error
		env.Spawn("ops", func(p *sim.Proc) {
			opts := DefaultOptions()
			opts.KeepWarmPerPU = 2
			rt, err := New(p, m, workloads.NewRegistry(), opts)
			if err != nil {
				failure = err
				return
			}
			failure = fuzzWarmPools(p, rt, data)
		})
		env.Run()
		if failure != nil {
			t.Fatal(failure)
		}
		if env.LiveProcs() != 0 {
			t.Fatalf("%d processes still blocked after Run", env.LiveProcs())
		}
	})
}

// fuzzWarmPools runs FuzzWarmPools' operations on rt and returns the first
// broken invariant.
func fuzzWarmPools(p *sim.Proc, rt *Runtime, data []byte) error {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	general := rt.general
	dpus := rt.Machine.PUsOfKind(hw.DPU)
	profiles := [3][]Profile{
		{DefaultProfile(hw.CPU)},
		{DefaultProfile(hw.DPU)},
		{DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)},
	}
	// pin decodes a PU pin: placement's choice, or one general-purpose PU.
	pin := func(b int) hw.PUID {
		if b&4 == 0 {
			return -1
		}
		return general[(b>>3)%len(general)].pu.ID
	}
	inflight := sim.NewWaitGroup(rt.Env)
	for step := 0; len(data) > 0; step++ {
		op := next() & 0xf % numOps
		b := next()
		fn := fuzzFns[b%len(fuzzFns)]
		switch op {
		case opDeploy:
			if err := rt.Deploy(p, fn, profiles[(b>>2)%len(profiles)]...); err != nil {
				return fmt.Errorf("step %d: deploy %s: %v", step, fn, err)
			}
		case opUndeploy:
			rt.Undeploy(p, fn) // errors when not deployed
		case opInvokeCold, opInvokeWarm:
			rt.Invoke(p, fn, InvokeOptions{PU: pin(b), ForceCold: op == opInvokeCold})
		case opInvokeAsync:
			inflight.Add(1)
			rt.Env.Spawn("async-invoke", func(ip *sim.Proc) {
				defer inflight.Done()
				rt.Invoke(ip, fn, InvokeOptions{PU: pin(b)})
			})
			p.Sleep(time.Microsecond) // the invocation is under way
		case opKill:
			rt.KillExecutor(p, dpus[b%len(dpus)].ID)
		case opCrash:
			id := general[b%len(general)].pu.ID
			pl := faults.NewPlan(rt.Env, 1)
			rt.AttachFaults(pl)
			pl.Kill(id)
			rt.reapCrashed(p)
			pl.Revive(id)
			rt.AttachFaults(nil)
		case opPlace:
			chain := make([]string, 1+b%6)
			for i := range chain {
				chain[i] = fuzzFns[next()%len(fuzzFns)]
			}
			if err := placeChainErr(rt, chain); err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
		case opCapacity:
			rt.SetCapacity(general[b%len(general)].pu.ID, (b>>2)%5)
		case opSleep:
			p.Sleep(time.Duration(b) * time.Millisecond)
		}
		if err := fuzzStepErr(rt); err != nil {
			return fmt.Errorf("step %d (op %d): %v", step, op, err)
		}
	}
	inflight.Wait(p)
	if err := fuzzStepErr(rt); err != nil {
		return fmt.Errorf("after every invocation finished: %v", err)
	}
	warm := 0
	for _, n := range general {
		warm += n.warmCount
	}
	if live := rt.LiveInstances(); live != warm {
		return fmt.Errorf("with nothing in flight, %d live instances but %d pooled", live, warm)
	}
	return nil
}

// fuzzStepErr checks the warm counts and index slots, then PlaceChain
// against the reference on the whole function list and on a chain that
// repeats a name.
func fuzzStepErr(rt *Runtime) error {
	if err := warmCountsErr(rt); err != nil {
		return err
	}
	for _, chain := range [][]string{fuzzFns[:], {"pyaes", "dd", "pyaes"}} {
		if err := placeChainErr(rt, chain); err != nil {
			return err
		}
	}
	return nil
}
