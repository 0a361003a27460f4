package molecule

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// chainEvents is what TestChainEventsExact pins for one run: the event
// digest over the whole run, Scheduled(), the end time, and a hash of every
// ChainResult (or error) the run's calls returned, in call order.
type chainEvents struct {
	digest  uint64
	sched   int64
	end     sim.Time
	results uint64
}

// runChainShape boots chainRig's runtime with the MapReduce functions also
// deployed, runs shape from a client process, and returns the run's
// chainEvents. The digest covers the boot too.
func runChainShape(t *testing.T, shape func(p *sim.Proc, rt *Runtime, chain []string, cross []hw.PUID, record func(ChainResult, error))) chainEvents {
	t.Helper()
	env := sim.NewEnv()
	env.EnableDigest()
	m := hw.Build(env, hw.Config{DPUs: 2})
	h := fnv.New64a()
	record := func(res ChainResult, err error) {
		fmt.Fprintf(h, "%v|%v;", res, err)
	}
	env.Spawn("client", func(p *sim.Proc) {
		rt, chain, cross := chainRig(t, p, m)
		deployMapReduce(t, p, rt)
		shape(p, rt, chain, cross, record)
	})
	end := env.Run()
	if n := env.LiveProcs(); n != 0 {
		t.Fatalf("%d procs still live: %v", n, env.BlockedProcs())
	}
	return chainEvents{env.Digest(), env.Scheduled(), end, h.Sum64()}
}

// TestChainEventsExact pins the complete event sequence of the chain and
// DAG executor on six shapes. The values were captured before chain FIFO
// reads became stepped waits and must not move: a change to how a chain's
// processes run on the host (coroutine switches, stepped waits, stage
// processes) has to leave every event's (time, sequence number, target)
// where it was, and every result with it.
func TestChainEventsExact(t *testing.T) {
	shapes := []struct {
		name  string
		want  chainEvents
		shape func(p *sim.Proc, rt *Runtime, chain []string, cross []hw.PUID, record func(ChainResult, error))
	}{
		{"cross-PU", chainEvents{0x76298de297f8110a, 419, 3865708544, 0x93c809620d117430}, func(p *sim.Proc, rt *Runtime, chain []string, cross []hw.PUID, record func(ChainResult, error)) {
			for i := 0; i < 2; i++ { // a cold chain, then a warm one
				record(rt.InvokeChain(p, chain, ChainOptions{Placement: cross}))
			}
		}},
		{"8-clients", chainEvents{0x67e2e05241b06865, 5473, 3104698897, 0xf253d6dc86c226ed}, func(p *sim.Proc, rt *Runtime, chain []string, _ []hw.PUID, record func(ChainResult, error)) {
			// chain-nipc's shape: eight clients, each on one placement drawn
			// from the host and both DPUs, running chains concurrently.
			pus := []hw.PUID{rt.hostID}
			for _, pu := range rt.Machine.PUsOfKind(hw.DPU) {
				pus = append(pus, pu.ID)
			}
			rng := rand.New(rand.NewSource(42))
			done := sim.NewWaitGroup(p.Env())
			for c := 0; c < 8; c++ {
				placement := make([]hw.PUID, len(chain))
				for j := range placement {
					placement[j] = pus[rng.Intn(len(pus))]
				}
				done.Add(1)
				p.Env().Spawn(fmt.Sprintf("client-%d", c), func(cp *sim.Proc) {
					defer done.Done()
					for i := 0; i < 4; i++ {
						record(rt.InvokeChain(cp, chain, ChainOptions{Placement: placement}))
					}
				})
			}
			done.Wait(p)
		}},
		{"host-local", chainEvents{0xac6f3ea88a3f2ae3, 206, 827123300, 0x60b101097cee8e11}, func(p *sim.Proc, rt *Runtime, chain []string, _ []hw.PUID, record func(ChainResult, error)) {
			for i := 0; i < 2; i++ {
				record(rt.InvokeChain(p, chain, ChainOptions{}))
			}
		}},
		{"diamond", chainEvents{0x75511609d4aaf1b, 433, 3858474340, 0x633658811f72f250}, func(p *sim.Proc, rt *Runtime, chain []string, cross []hw.PUID, record func(ChainResult, error)) {
			for i := 0; i < 2; i++ {
				record(rt.InvokeDAG(p, alexaDiamond(chain), ChainOptions{Placement: cross}))
			}
		}},
		{"mapreduce", chainEvents{0xbb3dd13d4b72867c, 600, 2071706856, 0xa80ca65911f776a1}, func(p *sim.Proc, rt *Runtime, _ []string, _ []hw.PUID, record func(ChainResult, error)) {
			dpus := rt.Machine.PUsOfKind(hw.DPU)
			placement := []hw.PUID{rt.hostID, dpus[0].ID, dpus[1].ID, rt.hostID, dpus[0].ID, rt.hostID}
			for i := 0; i < 2; i++ {
				record(rt.InvokeDAG(p, MapReduceDAG(4), ChainOptions{Placement: placement}))
			}
		}},
		{"crash", chainEvents{0xb54165b6e793f6fb, 745, 8484926363, 0x75aa805db84a6723}, func(p *sim.Proc, rt *Runtime, chain []string, _ []hw.PUID, record func(ChainResult, error)) {
			// TestInvokeChainMidChainCrashUnwinds's shape at each of its kill
			// points: a warm chain across the host and one DPU whose DPU
			// crashes mid-call, healed before the next point.
			dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
			opts := ChainOptions{Placement: []hw.PUID{rt.hostID, dpu, rt.hostID, dpu, rt.hostID}}
			record(rt.InvokeChain(p, chain, opts))
			for _, after := range []time.Duration{
				100 * time.Microsecond, 500 * time.Microsecond,
				time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond,
			} {
				pl := faults.NewPlan(p.Env(), 1)
				rt.AttachFaults(pl)
				p.Env().AfterFunc(after, func() { pl.Kill(dpu) })
				record(rt.InvokeChain(p, chain, opts))
				p.Sleep(time.Second)
				rt.AttachFaults(nil)
			}
		}},
	}
	for _, sc := range shapes {
		t.Run(sc.name, func(t *testing.T) {
			got := runChainShape(t, sc.shape)
			if got != sc.want {
				t.Errorf("events %#v, want %#v", got, sc.want)
			}
		})
	}
}

// TestHostCostExact pins the kernel's host work (sim.HostCost) for one call
// on each hot path: a warm chain across the host and both DPUs (chainRig's
// placement), a warm host-local chain, a warm invoke and a cold invoke with
// eviction (TestColdInvokeAllocs's rig). Each count is exact, like
// Scheduled(); a change that moves one must say so.
func TestHostCostExact(t *testing.T) {
	measure := func(t *testing.T, cfg hw.Config, setup func(p *sim.Proc, m *hw.Machine) func()) sim.HostCost {
		env := sim.NewEnv()
		m := hw.Build(env, cfg)
		var got sim.HostCost
		env.Spawn("client", func(p *sim.Proc) {
			call := setup(p, m)
			call() // warm up
			before := env.HostCost()
			call()
			after := env.HostCost()
			got = sim.HostCost{
				Switches: after.Switches - before.Switches, Pops: after.Pops - before.Pops,
				Inline: after.Inline - before.Inline, Stepped: after.Stepped - before.Stepped,
			}
		})
		env.Run()
		return got
	}
	chain := func(cross bool) func(p *sim.Proc, m *hw.Machine) func() {
		return func(p *sim.Proc, m *hw.Machine) func() {
			rt, chain, placement := chainRig(t, p, m)
			opts := ChainOptions{Placement: placement}
			if !cross {
				opts = ChainOptions{}
			}
			return func() {
				if _, err := rt.InvokeChain(p, chain, opts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cases := []struct {
		name  string
		cfg   hw.Config
		setup func(p *sim.Proc, m *hw.Machine) func()
		want  sim.HostCost
	}{
		{"chain-cross-PU", hw.Config{DPUs: 2}, chain(true), sim.HostCost{Switches: 11, Pops: 34, Stepped: 23}},
		{"chain-host-local", hw.Config{DPUs: 2}, chain(false), sim.HostCost{Switches: 11, Pops: 30, Stepped: 19}},
		{"invoke-warm", hw.Config{}, func(p *sim.Proc, m *hw.Machine) func() {
			rt, err := New(p, m, workloads.NewRegistry(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Deploy(p, "helloworld"); err != nil {
				t.Fatal(err)
			}
			return func() {
				if _, err := rt.Invoke(p, "helloworld", InvokeOptions{PU: -1}); err != nil {
					t.Fatal(err)
				}
			}
		}, sim.HostCost{}}, // every event takes the Sleep fast path
		{"invoke-cold", hw.Config{}, func(p *sim.Proc, m *hw.Machine) func() {
			rt := coldRig(t, p, m)
			return func() {
				if _, err := rt.Invoke(p, coldFn, InvokeOptions{PU: -1, ForceCold: true}); err != nil {
					t.Fatal(err)
				}
			}
		}, sim.HostCost{Pops: 2, Inline: 2}}, // the pool refill's two callbacks
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := measure(t, tc.cfg, tc.setup); got != tc.want {
				t.Errorf("host cost %#v, want %#v", got, tc.want)
			}
		})
	}
}
