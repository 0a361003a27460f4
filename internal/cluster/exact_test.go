package cluster

import (
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// clusterEvents is what TestClusterEventsExact pins for one run: every
// domain's event digest (boss first), Sharded.Scheduled(), the end time,
// and a hash of every request's outcome in the order the clients saw them.
type clusterEvents struct {
	digests []uint64
	sched   int64
	end     sim.Time
	results uint64
}

// outcomes hashes request outcomes as clients record them.
type outcomes struct{ h hash.Hash }

func (o outcomes) invoke(client string, res molecule.Result, machine int, err error) {
	fmt.Fprintf(o.h, "%s|%v|%d|%v;", client, res, machine, err)
}

func (o outcomes) chain(client string, res molecule.ChainResult, err error) {
	fmt.Fprintf(o.h, "%s|%v|%v;", client, res, err)
}

// observed hashes every machine's kernel trace, spans and metrics.
func (o outcomes) observed(b *Boss) {
	for i := 0; i < b.Sharded.Domains(); i++ {
		for _, ev := range b.Sharded.Domain(i).TraceLog() {
			fmt.Fprintln(o.h, ev)
		}
	}
	for _, n := range b.nodes {
		ob := n.RT.Observer()
		if err := ob.Tracer.WriteChromeTrace(o.h); err != nil {
			panic(err)
		}
		if err := ob.Metrics.WritePrometheus(o.h); err != nil {
			panic(err)
		}
	}
}

// runClusterShape turns on every domain's digest of a booted Boss, lets
// shape start its clients (and any scheduled faults), runs the cluster to
// quiescence and returns the run's clusterEvents.
func runClusterShape(t *testing.T, b *Boss, shape func(b *Boss, rec outcomes)) clusterEvents {
	t.Helper()
	for i := 0; i < b.Sharded.Domains(); i++ {
		b.Sharded.Domain(i).EnableDigest()
	}
	h := fnv.New64a()
	shape(b, outcomes{h})
	end := b.Run(1)
	if n := b.Sharded.LiveProcs(); n != 0 {
		t.Fatalf("%d procs still live: %v", n, b.Sharded.BlockedProcs())
	}
	checkQuiescent(t, b, "after the run")
	checkFreeListClean(t, b)
	got := clusterEvents{sched: b.Sharded.Scheduled(), end: end, results: h.Sum64()}
	for i := 0; i < b.Sharded.Domains(); i++ {
		got.digests = append(got.digests, b.Sharded.Domain(i).Digest())
	}
	return got
}

// mixedFleet boots machines machines of one host CPU and one DPU each,
// capacity per general-purpose PU (0: the default), with the MapReduce
// chain and pyaes registered on both kinds.
func mixedFleet(t testing.TB, machines, capacity int) *Boss {
	t.Helper()
	b, err := NewBoss(BossConfig{Machines: machines, HW: hw.Config{DPUs: 1}, Opts: molecule.DefaultOptions(), Capacity: capacity})
	if err != nil {
		t.Fatalf("NewBoss: %v", err)
	}
	profiles := []molecule.Profile{molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)}
	for _, fn := range append(workloads.MapReduceChain(), "pyaes") {
		if err := b.Register(fn, profiles...); err != nil {
			t.Fatalf("Register(%q): %v", fn, err)
		}
	}
	return b
}

// TestClusterEventsExact pins the complete event sequence of the cluster
// path on ten shapes. The first five were captured before the client's
// round trip and the machine admission queue became stepped waits, the
// other five (warm hits, cold starts, a capacity miss that waits and
// retries, handler faults, and a run with observers and tracing on) before
// a single function's segment did; none may move: a change to how cluster
// requests wait on the host has to leave every event's (time, sequence
// number, target) where it was, on every domain, and every outcome with
// it.
func TestClusterEventsExact(t *testing.T) {
	shapes := []struct {
		name  string
		boss  func(t *testing.T) *Boss
		want  clusterEvents
		shape func(b *Boss, rec outcomes)
	}{
		{"warm-cold", func(t *testing.T) *Boss {
			return newTestBoss(t, 2, hw.Config{}, 0, "pyaes", "mr-splitter")
		}, clusterEvents{[]uint64{0xf0f33283d8bf80fd, 0xf5ea56a56a99f275, 0xe0717251a34dc13f}, 76, 289749931, 0x605b781e19e80270}, func(b *Boss, rec outcomes) {
			// A cold then a warm invoke of each function, from two clients
			// whose functions have different homes.
			for i, fn := range []string{"pyaes", "mr-splitter"} {
				b.Env.SpawnAfter(time.Duration(i)*time.Millisecond, "client-"+fn, func(p *sim.Proc) {
					for j := 0; j < 2; j++ {
						res, m, err := b.InvokeDetailed(p, fn, molecule.InvokeOptions{PU: -1})
						rec.invoke(fn, res, m, err)
					}
				})
			}
		}},
		{"admission", func(t *testing.T) *Boss { return mixedFleet(t, 2, 2) }, clusterEvents{[]uint64{0xbf0537509d42e781, 0x21194f8fd9c34f4, 0xbd6d896a0d681acf}, 4567, 3223624465, 0x63b68f94c1e6ea07}, func(b *Boss, rec outcomes) {
			// A closed loop past capacity: the boss never queues a chain,
			// so the overflow parks on the machines' admission queues.
			mr := workloads.MapReduceChain()
			for c := 0; c < 8; c++ {
				name := fmt.Sprintf("client-%d", c)
				b.Env.Spawn(name, func(p *sim.Proc) {
					for i := 0; i < 4; i++ {
						if (c+i)%3 == 0 {
							res, m, err := b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1})
							rec.invoke(name, res, m, err)
							continue
						}
						res, err := b.InvokeChain(p, mr, molecule.ChainOptions{})
						rec.chain(name, res, err)
					}
				})
			}
		}},
		{"queue-fail", func(t *testing.T) *Boss {
			b := newTestBoss(t, 1, hw.Config{}, 0, "pyaes")
			b.nodes[0].capacity = 0 // hasRoom() is always false
			return b
		}, clusterEvents{[]uint64{0xab11ee655de9dd3b, 0xcbf29ce484222325}, 18, 137600000, 0xd876d7190dc3c02a}, func(b *Boss, rec outcomes) {
			// pump fails the queue: nothing is inflight and nothing has room.
			for c := 0; c < 3; c++ {
				name := fmt.Sprintf("client-%d", c)
				b.Env.SpawnAfter(time.Duration(c)*time.Microsecond, name, func(p *sim.Proc) {
					res, m, err := b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1})
					rec.invoke(name, res, m, err)
				})
			}
		}},
		{"drain-kill-revive", func(t *testing.T) *Boss {
			return newTestBoss(t, 2, hw.Config{}, 0, "pyaes", "matmul", "helloworld")
		}, clusterEvents{[]uint64{0x6d6b7b2db1250d2c, 0xcdccaf9f83e136e, 0xbfeb4059d003e048}, 902, 2043265533, 0xb772091b888f7b06}, func(b *Boss, rec outcomes) {
			// pyaes's home is drained and undrained, then killed mid-run:
			// its in-flight requests fail over through complete → submit.
			// After a revive and a readmit it serves again.
			home := homeOf(b, "pyaes")
			pl := faults.NewPlan(home.Env, 1)
			home.RT.AttachFaults(pl)
			b.Env.At(sim.Time(300*time.Millisecond), func() { b.Drain(home.ID()) })
			b.Env.At(sim.Time(600*time.Millisecond), func() { b.Undrain(home.ID()) })
			home.Env.At(sim.Time(time.Second), func() {
				for _, pu := range home.HW.PUs() {
					pl.Kill(pu.ID)
				}
			})
			home.Env.At(sim.Time(1500*time.Millisecond), func() {
				for _, pu := range home.HW.PUs() {
					pl.Revive(pu.ID)
				}
			})
			b.Env.At(sim.Time(1600*time.Millisecond), func() { b.Readmit(home.ID()) })
			for i, fn := range []string{"pyaes", "matmul", "helloworld"} {
				b.Env.SpawnAfter(time.Duration(i)*time.Millisecond, "client-"+fn, func(p *sim.Proc) {
					for p.Now() < sim.Time(2*time.Second) {
						res, m, err := b.InvokeDetailed(p, fn, molecule.InvokeOptions{PU: -1})
						rec.invoke(fn, res, m, err)
						p.Sleep(40 * time.Millisecond)
					}
				})
			}
		}},
		{"requeue", func(t *testing.T) *Boss {
			b := newTestBoss(t, 2, hw.Config{DPUs: 1}, 0, "pyaes")
			if err := b.Register("matmul", molecule.DefaultProfile(hw.DPU)); err != nil {
				t.Fatal(err)
			}
			home := homeOf(b, "pyaes")
			restrictKinds(b, home.ID(), hw.CPU)
			for _, pu := range home.HW.PUs() {
				if pu.Kind.GeneralPurpose() {
					home.RT.SetCapacity(pu.ID, 0)
				}
			}
			return b
		}, clusterEvents{[]uint64{0x5ef4b2c9c6f6c745, 0x1d555a4eb72d96da, 0x9b2b6a20b05a0fbb}, 297, 1009578890, 0x8989b3fcf67a8551}, func(b *Boss, rec outcomes) {
			// TestBossRecycledRequestIsClean's requeue shape: pyaes bounces
			// off its zero-capacity home until the requeue budget runs out,
			// while matmul runs on the other machine.
			b.Env.Spawn("requeued", func(p *sim.Proc) {
				res, m, err := b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1})
				rec.invoke("requeued", res, m, err)
			})
			b.Env.Spawn("client-matmul", func(p *sim.Proc) {
				for p.Now() < sim.Time(time.Second) {
					res, m, err := b.InvokeDetailed(p, "matmul", molecule.InvokeOptions{PU: -1})
					rec.invoke("matmul", res, m, err)
					p.Sleep(5 * time.Millisecond)
				}
			})
		}},
		{"warm-hit", func(t *testing.T) *Boss {
			// The benchmark's runtime options: the invoke-latency jitter
			// adds the scheduling-noise sleep to every warm hit.
			opts := molecule.DefaultOptions()
			opts.JitterPct = 0.12
			b, err := NewBoss(BossConfig{Machines: 2, HW: hw.Config{DPUs: 1}, Opts: opts})
			if err != nil {
				t.Fatal(err)
			}
			for _, fn := range []string{"helloworld", "pyaes"} {
				if err := b.Register(fn); err != nil {
					t.Fatal(err)
				}
			}
			return b
		}, clusterEvents{[]uint64{0x2cbe3a9e6fe16476, 0xcbf29ce484222325, 0xa09091da73962ae6}, 180, 585361036, 0x73eddfc11415eb8}, func(b *Boss, rec outcomes) {
			// One cold start per function, then warm hits from two clients.
			for i, fn := range []string{"helloworld", "pyaes"} {
				b.Env.SpawnAfter(time.Duration(i)*time.Microsecond, "client-"+fn, func(p *sim.Proc) {
					for j := 0; j < 6; j++ {
						res, m, err := b.InvokeDetailed(p, fn, molecule.InvokeOptions{PU: -1})
						rec.invoke(fn, res, m, err)
						p.Sleep(time.Duration(j) * 100 * time.Microsecond)
					}
				})
			}
		}},
		{"cold-start", func(t *testing.T) *Boss {
			return newTestBoss(t, 1, hw.Config{DPUs: 1}, 0, "pyaes", "matmul", "helloworld")
		}, clusterEvents{[]uint64{0xd52b498f27916c5b, 0xb3d1398f7ed9866e}, 187, 535314967, 0x28d35c4600540cf2}, func(b *Boss, rec outcomes) {
			// Every invoke skips the warm pool, so every segment builds.
			for i, fn := range []string{"pyaes", "matmul", "helloworld"} {
				b.Env.SpawnAfter(time.Duration(i)*time.Microsecond, "client-"+fn, func(p *sim.Proc) {
					for j := 0; j < 3; j++ {
						res, m, err := b.InvokeDetailed(p, fn, molecule.InvokeOptions{PU: -1, ForceCold: true})
						rec.invoke(fn, res, m, err)
					}
				})
			}
		}},
		{"capacity-wait", func(t *testing.T) *Boss {
			return newTestBoss(t, 1, hw.Config{}, 2, "pyaes", "matmul")
		}, clusterEvents{[]uint64{0x5d548eccafff0c2, 0x2e1aa528412ec70}, 377, 338000442, 0x2f702fb061707738}, func(b *Boss, rec outcomes) {
			// The boss's window is wider than the machine's two slots, so
			// the overflow misses capacity, waits on the machine's
			// admission queue and retries: warm hits for pyaes, cold
			// starts that evict for matmul.
			b.nodes[0].capacity = 10
			for c := 0; c < 10; c++ {
				name := fmt.Sprintf("client-%d", c)
				fn := "pyaes"
				if c%4 == 3 {
					fn = "matmul"
				}
				b.Env.Spawn(name, func(p *sim.Proc) {
					for i := 0; i < 3; i++ {
						res, m, err := b.InvokeDetailed(p, fn, molecule.InvokeOptions{PU: -1})
						rec.invoke(name, res, m, err)
					}
				})
			}
		}},
		{"handler-fault", func(t *testing.T) *Boss {
			b := newTestBoss(t, 1, hw.Config{}, 0, "pyaes", "helloworld")
			pl := faults.NewPlan(b.nodes[0].Env, 7)
			pl.HandlerFailProb = 0.3
			b.nodes[0].RT.AttachFaults(pl)
			return b
		}, clusterEvents{[]uint64{0x1961d42e9e8e5c5, 0x5239ea8a7fd3ee22}, 231, 548953269, 0xe8bc789753b7eba5}, func(b *Boss, rec outcomes) {
			// A crashed handler destroys its instance and fails the
			// request; the next invoke cold-starts a replacement.
			for i, fn := range []string{"pyaes", "helloworld"} {
				b.Env.SpawnAfter(time.Duration(i)*time.Microsecond, "client-"+fn, func(p *sim.Proc) {
					for j := 0; j < 10; j++ {
						res, m, err := b.InvokeDetailed(p, fn, molecule.InvokeOptions{PU: -1})
						rec.invoke(fn, res, m, err)
					}
				})
			}
		}},
		{"observed-traced", func(t *testing.T) *Boss {
			b := mixedFleet(t, 2, 0)
			for _, n := range b.nodes {
				n.RT.SetObserver(obs.New(n.Env))
			}
			b.Sharded.EnableTrace()
			return b
		}, clusterEvents{[]uint64{0x339e9dd855bbcdd9, 0xcc57d4be1029b0d, 0xb5ce9f13f53025ae}, 246, 10000000000, 0xe1784132def2c27a}, func(b *Boss, rec outcomes) {
			// Spans, metrics and the kernel trace on every machine; the
			// outcome hash covers all three after the run.
			mr := workloads.MapReduceChain()
			for c := 0; c < 3; c++ {
				name := fmt.Sprintf("client-%d", c)
				b.Env.SpawnAfter(time.Duration(c)*time.Microsecond, name, func(p *sim.Proc) {
					for i := 0; i < 4; i++ {
						if c == 2 && i == 1 {
							res, err := b.InvokeChain(p, mr, molecule.ChainOptions{})
							rec.chain(name, res, err)
							continue
						}
						res, m, err := b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1})
						rec.invoke(name, res, m, err)
					}
				})
			}
			b.Env.At(sim.Time(10*time.Second), func() { rec.observed(b) })
		}},
	}
	for _, sc := range shapes {
		t.Run(sc.name, func(t *testing.T) {
			got := runClusterShape(t, sc.boss(t), sc.shape)
			if !reflect.DeepEqual(got, sc.want) {
				t.Errorf("events %#v, want %#v", got, sc.want)
			}
		})
	}
}

// TestBossHostCostExact pins the kernel's host work (sim.HostCost, summed
// over the cluster's domains) for one warm call on each Boss path: a
// single invoke, a MapReduce chain placed whole on one machine, and a
// burst of chains, then of single invokes, past a machine's capacity whose
// overflow waits on the machine's admission queue. Each count is exact,
// like Scheduled(); a change that moves one must say so.
func TestBossHostCostExact(t *testing.T) {
	delta := func(before, after sim.HostCost) sim.HostCost {
		return sim.HostCost{
			Switches: after.Switches - before.Switches, Pops: after.Pops - before.Pops,
			Inline: after.Inline - before.Inline, Stepped: after.Stepped - before.Stepped,
		}
	}
	// measure runs call once to warm up, then again between two HostCost
	// reads, on one client process.
	measure := func(t *testing.T, b *Boss, call func(p *sim.Proc) error) sim.HostCost {
		var got sim.HostCost
		b.Env.Spawn("client", func(p *sim.Proc) {
			if err := call(p); err != nil {
				t.Fatal(err)
			}
			before := b.Sharded.HostCost()
			if err := call(p); err != nil {
				t.Fatal(err)
			}
			got = delta(before, b.Sharded.HostCost())
		})
		b.Run(1)
		return got
	}
	chain := workloads.MapReduceChain()
	cases := []struct {
		name string
		run  func(t *testing.T) sim.HostCost
		want sim.HostCost
	}{
		{"invoke-warm", func(t *testing.T) sim.HostCost {
			b := newTestBoss(t, 1, hw.Config{}, 0, "helloworld")
			return measure(t, b, func(p *sim.Proc) error {
				_, err := b.Invoke(p, "helloworld", molecule.DefaultInvokeOptions())
				return err
			})
		}, sim.HostCost{Switches: 1, Pops: 7, Stepped: 2}}, // the client's wait ends; the segment ends in its wait
		{"chain-warm", func(t *testing.T) sim.HostCost {
			b := newTestBoss(t, 1, hw.Config{}, 0, chain...)
			return measure(t, b, func(p *sim.Proc) error {
				_, err := b.InvokeChain(p, chain, molecule.ChainOptions{})
				return err
			})
		}, sim.HostCost{Switches: 9, Pops: 26, Stepped: 14}},
		{"admission-herd", func(t *testing.T) sim.HostCost {
			// Ten 2-stage chains at once on one machine with two slots per
			// PU: the boss dispatches them all home, and the overflow parks
			// on the machine's admission queue. The burst runs once cold,
			// then is measured warm, as a second run of the cluster.
			b := newTestBoss(t, 1, hw.Config{}, 2, "pyaes")
			burst := func() {
				for i := 0; i < 10; i++ {
					b.Env.Spawn("client", func(p *sim.Proc) {
						if _, err := b.InvokeChain(p, []string{"pyaes", "pyaes"}, molecule.ChainOptions{}); err != nil {
							t.Error(err)
						}
					})
				}
				b.Run(1)
			}
			burst()
			before := b.Sharded.HostCost()
			burst()
			return delta(before, b.Sharded.HostCost())
		}, sim.HostCost{Switches: 145, Pops: 289, Stepped: 124}},
		{"invoke-burst", func(t *testing.T) sim.HostCost {
			// admission-herd's single-invoke twin: ten invokes at once on
			// one machine with two slots. The first burst, under a
			// two-request window, leaves two warm instances; the measured
			// one is dispatched all home under a ten-request window, and
			// each request that finds both instances busy misses capacity,
			// waits on the machine's admission queue and retries warm.
			b := newTestBoss(t, 1, hw.Config{}, 2, "pyaes")
			burst := func() {
				for i := 0; i < 10; i++ {
					b.Env.Spawn("client", func(p *sim.Proc) {
						if _, err := b.Invoke(p, "pyaes", molecule.DefaultInvokeOptions()); err != nil {
							t.Error(err)
						}
					})
				}
				b.Run(1)
			}
			burst()
			b.nodes[0].capacity = 10
			before := b.Sharded.HostCost()
			burst()
			return delta(before, b.Sharded.HostCost())
		}, sim.HostCost{Switches: 20, Pops: 126, Stepped: 76}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("host cost %#v, want %#v", got, tc.want)
			}
		})
	}
}
