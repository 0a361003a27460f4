package repro

// Soak test: a long, seeded, randomized scenario that interleaves every
// major operation — deploys, invokes, chains, DAGs, accelerator calls,
// executor crashes, sandbox kills, and bursts — while checking global
// invariants after every step. The point is not any single latency but that
// the system never wedges, leaks instances, or corrupts its accounting
// under adversarial interleaving.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestSoakShardedTenMillion pushes ~10^7 events through the sharded kernel
// with one machine per domain — the configuration the scaling numbers come
// from — and leans on ShardSoak's built-in invariants: zero lost
// cross-machine messages, complete invocation counts, and monotone
// per-shard clocks as observed at every cross-shard delivery.
func TestSoakShardedTenMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("10^7-event sharded soak in -short mode")
	}
	const machines, invocations = 4, 2_150_000
	start := time.Now()
	res, err := bench.ShardSoak(bench.ShardSoakConfig{
		Machines:    machines,
		Invocations: invocations,
		Shards:      machines,
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 10_000_000 {
		t.Fatalf("soak scheduled only %d events, want >= 10^7", res.Events)
	}
	t.Logf("%d events at %.0f events/sec across %d shards", res.Events, float64(res.Events)/wall.Seconds(), res.Shards)
}

func TestSoakRandomizedOperations(t *testing.T) {
	const steps = 300
	rng := rand.New(rand.NewSource(0xC0FFEE))

	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 2, FPGAs: 1, GPUs: 1})
	env.Spawn("soak", func(p *sim.Proc) {
		opts := molecule.DefaultOptions()
		opts.KeepWarmPerPU = 8
		rt, err := molecule.New(p, m, workloads.NewRegistry(), opts)
		if err != nil {
			t.Fatal(err)
		}
		general := []string{"matmul", "pyaes", "chameleon", "image-resize", "dd"}
		for _, fn := range general {
			if err := rt.Deploy(p, fn,
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Deploy(p, "mscale",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.FPGA),
			molecule.DefaultProfile(hw.GPU)); err != nil {
			t.Fatal(err)
		}
		dpus := rt.Machine.PUsOfKind(hw.DPU)
		fpga := rt.Machine.PUsOfKind(hw.FPGA)[0].ID
		gpu := rt.Machine.PUsOfKind(hw.GPU)[0].ID

		check := func(step int) {
			if rt.LiveInstances() < 0 {
				t.Fatalf("step %d: negative live instances", step)
			}
			if rt.LiveInstances() > rt.Capacity() {
				t.Fatalf("step %d: live %d exceeds capacity %d", step, rt.LiveInstances(), rt.Capacity())
			}
			// The warm counter == the sum of the warm pools, and between
			// steps every live container instance is an idle warm one.
			for _, st := range rt.Snapshot() {
				sum := 0
				for _, k := range st.WarmPerFunc {
					sum += k
				}
				if st.Warm != sum {
					t.Fatalf("step %d: PU %d warm counter %d, pools hold %d", step, st.PU, st.Warm, sum)
				}
				if st.Kind.GeneralPurpose() && st.Live != st.Warm {
					t.Fatalf("step %d: PU %d has %d live instances but %d warm, none busy", step, st.PU, st.Live, st.Warm)
				}
			}
		}

		invocations := 0
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); op {
			case 0, 1, 2, 3: // plain invoke, random placement
				fn := general[rng.Intn(len(general))]
				pin := hw.PUID(-1)
				if rng.Intn(2) == 0 {
					pin = dpus[rng.Intn(len(dpus))].ID
				}
				if _, err := rt.Invoke(p, fn, molecule.InvokeOptions{PU: pin}); err != nil {
					t.Fatalf("step %d invoke: %v", step, err)
				}
				invocations++
			case 4: // accelerator invoke
				pin := fpga
				if rng.Intn(2) == 0 {
					pin = gpu
				}
				if _, err := rt.Invoke(p, "mscale", molecule.InvokeOptions{PU: pin}); err != nil {
					t.Fatalf("step %d accel: %v", step, err)
				}
				invocations++
			case 5: // chain with random policy
				policies := []molecule.PlacementPolicy{
					molecule.PlaceChainAffinity, molecule.PlaceScatter, molecule.PlaceCheapest,
				}
				chain := []string{general[rng.Intn(len(general))], general[rng.Intn(len(general))]}
				placement, err := rt.PlaceChain(chain, policies[rng.Intn(len(policies))])
				if err != nil {
					t.Fatalf("step %d chain placement: %v", step, err)
				}
				if _, err := rt.InvokeChain(p, chain, molecule.ChainOptions{Placement: placement}); err != nil {
					t.Fatalf("step %d chain: %v", step, err)
				}
				invocations += 2
			case 6: // fan-out DAG
				dag := molecule.DAG{Nodes: []molecule.DAGNode{
					{Fn: general[rng.Intn(len(general))]},
					{Fn: general[rng.Intn(len(general))], Deps: []int{0}},
					{Fn: general[rng.Intn(len(general))], Deps: []int{0}},
					{Fn: general[rng.Intn(len(general))], Deps: []int{1, 2}},
				}}
				if _, err := rt.InvokeDAG(p, dag, molecule.DAGOptions{}); err != nil {
					t.Fatalf("step %d dag: %v", step, err)
				}
				invocations += 4
			case 7: // executor crash on a random DPU
				if err := rt.KillExecutor(p, dpus[rng.Intn(len(dpus))].ID); err != nil {
					t.Fatalf("step %d crash: %v", step, err)
				}
			case 8: // kill a random running container behind Molecule's back
				cr := rt.ContainerRuntimeOn(0)
				sts := cr.State(nil)
				if len(sts) > 0 {
					victim := sts[rng.Intn(len(sts))]
					if victim.State == sandbox.StateRunning {
						cr.Kill(p, []string{victim.ID}, 9)
					}
				}
			case 9: // concurrent burst
				wg := sim.NewWaitGroup(p.Env())
				fn := general[rng.Intn(len(general))]
				n := 2 + rng.Intn(4)
				for i := 0; i < n; i++ {
					wg.Add(1)
					p.Env().Spawn("burst", func(bp *sim.Proc) {
						defer wg.Done()
						if _, err := rt.Invoke(bp, fn, molecule.DefaultInvokeOptions()); err != nil {
							t.Errorf("step %d burst: %v", step, err)
						}
					})
				}
				wg.Wait(p)
				invocations += n
			}
			check(step)
			// Virtual time must only move forward.
			if p.Now() < 0 {
				t.Fatal("clock went negative")
			}
		}

		if got := rt.Billing().Count(); got != invocations {
			t.Errorf("billing entries %d != invocations %d", got, invocations)
		}
		if rt.Billing().Total() <= 0 {
			t.Error("no revenue after soak")
		}
		// Every DPU executor is alive (respawned after crashes).
		for _, d := range dpus {
			rt.Invoke(p, "matmul", molecule.InvokeOptions{PU: d.ID})
			if !rt.ExecutorAlive(d.ID) {
				t.Errorf("DPU %d executor dead at end", d.ID)
			}
		}
	})
	end := env.Run()
	if env.LiveProcs() != 0 {
		t.Fatalf("soak left %d processes blocked", env.LiveProcs())
	}
	if end <= 0 || time.Duration(end) > 24*time.Hour {
		t.Errorf("implausible virtual end time %v", end)
	}
}
