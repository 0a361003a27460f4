package repro

// Property-based tests (testing/quick) on the core invariants of the
// simulation kernel, the distributed capability system, the keep-alive
// cache, and the FPGA resource model.

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hw"
	"repro/internal/localos"
	"repro/internal/molecule"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/xpu"
)

// TestSimClockMonotoneProperty: for any set of processes doing any sleeps,
// every observation of the clock is non-decreasing and the final time equals
// the largest completion time.
func TestSimClockMonotoneProperty(t *testing.T) {
	f := func(delays [][]uint16) bool {
		if len(delays) > 16 {
			delays = delays[:16]
		}
		env := sim.NewEnv()
		var observations []sim.Time
		var maxEnd sim.Time
		for _, seq := range delays {
			seq := seq
			if len(seq) > 16 {
				seq = seq[:16]
			}
			env.Spawn("p", func(p *sim.Proc) {
				for _, d := range seq {
					p.Sleep(time.Duration(d) * time.Microsecond)
					observations = append(observations, p.Now())
				}
				if p.Now() > maxEnd {
					maxEnd = p.Now()
				}
			})
		}
		end := env.Run()
		prev := sim.Time(0)
		for _, o := range observations {
			if o < prev {
				return false
			}
			prev = o
		}
		return end == maxEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestShardedDeterminismProperty: for any workload of random sleeps plus
// cross-domain sends, the windowed driver produces the observations of one
// classic Env that models each send as an AfterFunc (each domain's clock
// at every wake-up and every delivery, total scheduled events, final
// time), and every domain's clock is monotone throughout. The reference is
// exact: a domain's observations are a time-sorted list of times on both
// kernels, so their order within an instant cannot differ.
func TestShardedDeterminismProperty(t *testing.T) {
	f := func(delays [][]uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 12 {
			delays = delays[:12]
		}
		doms := len(delays)%4 + 1
		// run spawns the workload with env(d) as domain d's Env and send
		// as the cross-domain edge, then drives it.
		run := func(env func(d int) *sim.Env, send func(from *sim.Env, to int, delay time.Duration, fn func()),
			drive func() (sched int64, end sim.Time)) (string, bool) {
			obs := make([][]sim.Time, doms)
			for i, seq := range delays {
				if len(seq) > 16 {
					seq = seq[:16]
				}
				d := i % doms
				env(d).Spawn("p", func(p *sim.Proc) {
					for j, del := range seq {
						// Sleeps of up to 4µs against the 1µs lookahead
						// put several events in most windows, so the
						// barrier has real work to get right.
						p.Sleep(time.Duration(del%4096) * time.Nanosecond)
						obs[d] = append(obs[d], p.Now())
						if j%3 == 0 {
							to := (d + 1) % doms
							dst := env(to)
							send(p.Env(), to,
								time.Microsecond+time.Duration(del)*time.Nanosecond,
								func() { obs[to] = append(obs[to], dst.Now()) })
						}
					}
				})
			}
			sched, end := drive()
			for _, o := range obs {
				for k := 1; k < len(o); k++ {
					if o[k] < o[k-1] {
						return "", false
					}
				}
			}
			return fmt.Sprintf("%v %d %d", obs, sched, end), true
		}
		plain := sim.NewEnv()
		ref, ok := run(func(int) *sim.Env { return plain },
			func(from *sim.Env, _ int, delay time.Duration, fn func()) { from.AfterFunc(delay, fn) },
			func() (int64, sim.Time) { end := plain.Run(); return plain.Scheduled(), end })
		if !ok {
			return false
		}
		sh := sim.NewSharded(doms)
		sh.LimitLookahead(time.Microsecond)
		got, ok := run(sh.Domain, sh.Send,
			func() (int64, sim.Time) { end := sh.Run(); return sh.Scheduled(), end })
		return ok && got == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSimChannelConservationProperty: everything sent is received exactly
// once, in FIFO order per channel, regardless of buffering.
func TestSimChannelConservationProperty(t *testing.T) {
	f := func(capacity uint8, count uint8) bool {
		n := int(count%64) + 1
		env := sim.NewEnv()
		ch := sim.NewChan[int](env, int(capacity%8))
		received := make([]int, 0, n)
		env.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				v, ok := ch.Recv(p)
				if !ok {
					return
				}
				received = append(received, v)
			}
		})
		env.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				ch.Send(p, i)
			}
		})
		env.Run()
		if len(received) != n {
			return false
		}
		for i, v := range received {
			if v != i {
				return false
			}
		}
		return env.LiveProcs() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// capOp is one random capability operation.
type capOp struct {
	Grant  bool
	Target uint8
	Obj    uint8
	Perm   uint8
}

// TestCapabilityModelProperty: the distributed capability system agrees
// with a reference map under arbitrary grant/revoke sequences issued by the
// owner, and non-owners can never mutate permissions.
func TestCapabilityModelProperty(t *testing.T) {
	f := func(ops []capOp) bool {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		env := sim.NewEnv()
		m := hw.Build(env, hw.Config{DPUs: 1})
		shim := xpu.NewShim(env, m)
		cpuOS := localos.New(env, m.PU(0))
		node := shim.AddNode(m.PU(0), cpuOS)
		owner := node.Register(cpuOS.NewDetachedProcess("owner"))
		targets := make([]xpu.XPID, 4)
		for i := range targets {
			targets[i] = node.Register(cpuOS.NewDetachedProcess("t"))
		}
		objs := make([]xpu.ObjID, 4)
		ok := true
		reference := make(map[xpu.XPID]map[xpu.ObjID]xpu.Perm)
		env.Spawn("driver", func(p *sim.Proc) {
			for i := range objs {
				uuid := "obj-" + string(rune('a'+i))
				if _, err := node.FIFOInit(p, owner, uuid, 1); err != nil {
					ok = false
					return
				}
				objs[i] = xpu.ObjID{Kind: "fifo", UUID: uuid}
			}
			for _, op := range ops {
				target := targets[int(op.Target)%len(targets)]
				obj := objs[int(op.Obj)%len(objs)]
				perm := xpu.Perm(op.Perm) & (xpu.PermRead | xpu.PermWrite)
				if perm == 0 {
					perm = xpu.PermRead
				}
				if reference[target] == nil {
					reference[target] = make(map[xpu.ObjID]xpu.Perm)
				}
				if op.Grant {
					if err := node.GrantCap(p, owner, target, obj, perm); err != nil {
						ok = false
						return
					}
					reference[target][obj] |= perm
				} else {
					if err := node.RevokeCap(p, owner, target, obj, perm); err != nil {
						ok = false
						return
					}
					reference[target][obj] &^= perm
				}
				// A non-owner must never be able to grant.
				if err := node.GrantCap(p, target, target, obj, xpu.PermOwner); err == nil {
					ok = false
					return
				}
			}
			// Compare the shim's view with the reference.
			for target, perms := range reference {
				for obj, perm := range perms {
					for _, bit := range []xpu.Perm{xpu.PermRead, xpu.PermWrite} {
						if shim.HasCap(target, obj, bit) != perm.Has(bit) {
							ok = false
							return
						}
					}
				}
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestKeepAliveBoundProperty: for any invocation sequence, a node's warm
// pool never exceeds the configured capacity, and live-instance accounting
// never goes negative.
func TestKeepAliveBoundProperty(t *testing.T) {
	fns := []string{"matmul", "pyaes", "chameleon", "image-resize", "dd"}
	f := func(seq []uint8, capacity uint8) bool {
		capN := int(capacity%6) + 1
		if len(seq) > 24 {
			seq = seq[:24]
		}
		ok := true
		env := sim.NewEnv()
		m := hw.Build(env, hw.Config{})
		env.Spawn("driver", func(p *sim.Proc) {
			opts := molecule.DefaultOptions()
			opts.KeepWarmPerPU = capN
			rt, err := molecule.New(p, m, workloads.NewRegistry(), opts)
			if err != nil {
				ok = false
				return
			}
			for _, fn := range fns {
				if err := rt.Deploy(p, fn); err != nil {
					ok = false
					return
				}
			}
			for _, s := range seq {
				fn := fns[int(s)%len(fns)]
				if _, err := rt.Invoke(p, fn, molecule.DefaultInvokeOptions()); err != nil {
					ok = false
					return
				}
				if rt.LiveInstances() < 0 || rt.LiveInstances() > capN {
					ok = false
					return
				}
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFPGAResourceAdditivityProperty: image resources grow linearly with
// the instance vector and Fits is monotone (a subset of a fitting vector
// fits).
func TestFPGAResourceAdditivityProperty(t *testing.T) {
	f := func(count uint8) bool {
		n := int(count%40) + 1
		kernels := make([]string, n)
		for i := range kernels {
			kernels[i] = "k"
		}
		img, err := hw.BuildImage("p", kernels)
		if err != nil {
			// Oversized: removing instances must eventually fit.
			return n > 1
		}
		want := hw.WrapperBase()
		for i := 0; i < n; i++ {
			want = want.Add(hw.PerInstance())
		}
		if img.Resources != want {
			return false
		}
		if n > 1 {
			smaller, err := hw.BuildImage("q", kernels[:n-1])
			if err != nil || !smaller.Resources.Fits(hw.F1Resources()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBillingCeilingProperty: every charge bills at least 1ms and exactly
// ceil(duration/1ms) units times the rate.
func TestBillingCeilingProperty(t *testing.T) {
	f := func(durUS uint32, rateC uint8) bool {
		b := molecule.NewBilling()
		d := time.Duration(durUS) * time.Microsecond
		rate := float64(rateC%10) + 0.5
		b.Record("f", hw.CPU, d, rate)
		e, ok := b.Last()
		if !ok || b.Count() != 1 || e.BilledMs < 1 {
			return false
		}
		wantMs := int64((d + time.Millisecond - 1) / time.Millisecond)
		if wantMs < 1 {
			wantMs = 1
		}
		return e.BilledMs == wantMs && e.Charge == float64(wantMs)*rate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDAGValidateProperty: for random dependency structures, Validate
// either rejects the graph or returns a complete topological order where
// every node appears after all of its dependencies.
func TestDAGValidateProperty(t *testing.T) {
	f := func(edges []uint16, nNodes uint8) bool {
		n := int(nNodes%12) + 1
		dag := molecule.DAG{Nodes: make([]molecule.DAGNode, n)}
		for i := range dag.Nodes {
			dag.Nodes[i].Fn = "f"
		}
		for _, e := range edges {
			from := int(e>>8) % n
			to := int(e&0xff) % n
			dag.Nodes[to].Deps = append(dag.Nodes[to].Deps, from)
		}
		order, err := dag.Validate()
		if err != nil {
			return true // rejected (cycle or self-dep) is a valid outcome
		}
		if len(order) != n {
			return false
		}
		pos := make(map[int]int, n)
		for i, node := range order {
			pos[node] = i
		}
		for i, node := range dag.Nodes {
			for _, dep := range node.Deps {
				if pos[dep] >= pos[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// runfOp is one random operation against the FPGA sandbox runtime.
type runfOp struct {
	Kind uint8 // create / start / kill / delete / invoke
	A    uint8 // sandbox selector
}

// TestRunFStateMachineProperty: arbitrary op sequences against runf keep a
// reference state machine in agreement — created vectors replace prior
// sandboxes, start only succeeds on live sandboxes, delete never frees the
// fabric, and invoke only works on running, prepared sandboxes.
func TestRunFStateMachineProperty(t *testing.T) {
	f := func(ops []runfOp) bool {
		if len(ops) > 20 {
			ops = ops[:20]
		}
		ok := true
		env := sim.NewEnv()
		m := hw.Build(env, hw.Config{FPGAs: 1})
		rf, err := sandbox.NewRunF(m, m.PUsOfKind(hw.FPGA)[0], m.PU(0))
		if err != nil {
			return false
		}
		// Reference: which IDs exist and their state.
		type refState int
		const (
			refMissing refState = iota
			refCreated
			refRunning
			refStopped
			refDeleted
		)
		ref := make(map[string]refState)
		seq := 0
		env.Spawn("driver", func(p *sim.Proc) {
			for _, op := range ops {
				id := string(rune('a' + op.A%4))
				switch op.Kind % 5 {
				case 0: // vector create of two sandboxes (replaces everything)
					seq++
					id2 := id + "x"
					if err := rf.Create(p, []sandbox.Spec{
						{ID: id, FuncID: "k" + id}, {ID: id2, FuncID: "k2" + id},
					}); err != nil {
						ok = false
						return
					}
					// Create replaces the whole vector: prior sandboxes
					// disappear from runf's tables entirely.
					for k := range ref {
						delete(ref, k)
					}
					ref[id], ref[id2] = refCreated, refCreated
				case 1: // start
					err := rf.Start(p, []string{id})
					switch ref[id] {
					case refCreated, refRunning, refStopped:
						if err != nil {
							ok = false
							return
						}
						ref[id] = refRunning
					default:
						if err == nil {
							ok = false
							return
						}
					}
				case 2: // kill
					err := rf.Kill(p, []string{id}, 9)
					if (ref[id] == refMissing) != (err != nil) {
						ok = false
						return
					}
					if ref[id] == refRunning {
						ref[id] = refStopped
					}
				case 3: // delete: free, state-only
					before := p.Now()
					err := rf.Delete(p, []string{id})
					if (ref[id] == refMissing) != (err != nil) {
						ok = false
						return
					}
					if p.Now() != before {
						ok = false // delete must be free
						return
					}
					if ref[id] != refMissing {
						ref[id] = refDeleted
					}
				case 4: // invoke
					err := rf.Invoke(p, id, 64, 64, time.Millisecond, sandbox.InvokeOptions{})
					if (ref[id] == refRunning) != (err == nil) {
						ok = false
						return
					}
				}
				// Cross-check reported states.
				for k, want := range ref {
					if want == refMissing {
						continue
					}
					got := sandbox.StateOne(rf, k).State
					expected := map[refState]sandbox.State{
						refCreated: sandbox.StateCreated,
						refRunning: sandbox.StateRunning,
						refStopped: sandbox.StateStopped,
						refDeleted: sandbox.StateDeleted,
					}[want]
					if got != expected {
						ok = false
						return
					}
				}
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
