package molecule

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// checkWarmCounts asserts the warm-pool bookkeeping matches the pools
// themselves: each node's name-ordered list, its index slots and its warm
// count agree, every function record's warm count is what the pools hold,
// and no undeployed function has an instance pooled. popWarm's O(1) miss path and the O(1) pool lookups depend on it.
func checkWarmCounts(t testing.TB, rt *Runtime, when string) {
	t.Helper()
	if err := warmCountsErr(rt); err != nil {
		t.Errorf("%s: %v", when, err)
	}
}

// warmCountsErr is checkWarmCounts' check, returning the first mismatch.
func warmCountsErr(rt *Runtime) error {
	actual := map[*funcRec]int{}
	for _, n := range rt.orderedNodes() {
		sum := 0
		for i, wp := range n.pools {
			actual[wp.rec] += len(wp.insts)
			sum += len(wp.insts)
			if i > 0 && n.pools[i-1].rec.name >= wp.rec.name {
				return fmt.Errorf("PU %d pools out of name order: %q before %q", n.pu.ID, n.pools[i-1].rec.name, wp.rec.name)
			}
			if rt.funcs[wp.rec.name] != wp.rec {
				return fmt.Errorf("PU %d pools %q under a record the runtime does not hold", n.pu.ID, wp.rec.name)
			}
			if n.poolOf(wp.rec) != wp {
				return fmt.Errorf("PU %d: %q's index slot %d does not hold its pool", n.pu.ID, wp.rec.name, wp.rec.idx)
			}
			for _, inst := range wp.insts {
				if inst.rec != wp.rec || inst.node != n {
					return fmt.Errorf("PU %d: %q's pool holds instance %s of %q on PU %d", n.pu.ID, wp.rec.name, inst.sandboxID, inst.rec.name, inst.node.pu.ID)
				}
			}
		}
		slots := 0
		for idx, wp := range n.byIdx {
			if wp == nil {
				continue
			}
			slots++
			if wp.rec.idx != idx || !slices.Contains(n.pools, wp) {
				return fmt.Errorf("PU %d: index slot %d holds %q's pool (index %d), which the name list lacks or files elsewhere", n.pu.ID, idx, wp.rec.name, wp.rec.idx)
			}
		}
		if slots != len(n.pools) {
			return fmt.Errorf("PU %d: %d index slots filled, %d pools listed", n.pu.ID, slots, len(n.pools))
		}
		if n.warmCount != sum {
			return fmt.Errorf("PU %d warmCount = %d but pools hold %d", n.pu.ID, n.warmCount, sum)
		}
	}
	for name, r := range rt.funcs {
		if r.name != name {
			return fmt.Errorf("record filed under %q is named %q", name, r.name)
		}
		if r.warm != actual[r] {
			return fmt.Errorf("%q's record counts %d warm, pools hold %d", name, r.warm, actual[r])
		}
		if r.dep == nil && actual[r] != 0 {
			return fmt.Errorf("undeployed %q has %d warm instances pooled", name, actual[r])
		}
	}
	return nil
}

// TestWarmCountsConsistency drives the warm pools through every mutation
// path — release, warm hit, dead-instance discard, keep-alive eviction,
// executor kill, crash reaping, redeploy, undeploy, and an undeploy while
// an invocation runs — and checks the counts after each.
func TestWarmCountsConsistency(t *testing.T) {
	opts := DefaultOptions()
	opts.KeepWarmPerPU = 2 // small cap so admit evicts
	run(t, hw.Config{DPUs: 2}, opts, func(p *sim.Proc, rt *Runtime) {
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		for _, fn := range []string{"helloworld", "pyaes", "image-processing"} {
			if err := rt.Deploy(p, fn, DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
				t.Fatal(err)
			}
		}

		// Cold start + release, then a warm hit + release.
		for i := 0; i < 2; i++ {
			if _, err := rt.Invoke(p, "helloworld", DefaultInvokeOptions()); err != nil {
				t.Fatal(err)
			}
			checkWarmCounts(t, rt, "after invoke")
		}
		if w := rt.funcs["helloworld"].warm; w != 1 {
			t.Errorf("helloworld's record counts %d warm, want 1", w)
		}

		// Redeploy: the name keeps its record, so its warm instance serves
		// the next request.
		rec := rt.funcs["helloworld"]
		if err := rt.Deploy(p, "helloworld", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		if rt.funcs["helloworld"] != rec || rec.dep.rec != rec {
			t.Fatal("redeploy replaced helloworld's record")
		}
		checkWarmCounts(t, rt, "after redeploy")
		if res, err := rt.Invoke(p, "helloworld", DefaultInvokeOptions()); err != nil || res.Cold {
			t.Fatalf("invoke after redeploy: cold=%v err=%v, want a warm hit", res.Cold, err)
		}
		checkWarmCounts(t, rt, "after warm hit on the redeployed name")
		if rec.warm != 1 {
			t.Errorf("helloworld's record counts %d warm after redeploy, want 1", rec.warm)
		}

		// Keep-alive eviction: the third distinct function overflows the
		// 2-instance cap on the host and evicts the lowest-priority pool.
		for _, fn := range []string{"pyaes", "image-processing"} {
			if _, err := rt.Invoke(p, fn, DefaultInvokeOptions()); err != nil {
				t.Fatal(err)
			}
		}
		checkWarmCounts(t, rt, "after keep-alive eviction")

		// Dead-instance discard: break a pooled instance out-of-band; the
		// next acquire discards it and cold-starts.
		host := rt.nodes[rt.hostID]
		var pooled string
		for _, wp := range host.pools {
			if len(wp.insts) > 0 {
				pooled, wp.insts[0].sb = wp.rec.name, nil
				break
			}
		}
		if pooled == "" {
			t.Fatal("no pooled instance on the host to break")
		}
		if _, err := rt.Invoke(p, pooled, DefaultInvokeOptions()); err != nil {
			t.Fatal(err)
		}
		checkWarmCounts(t, rt, "after dead-instance discard")

		// Pinned invokes on a DPU, then an executor crash drops its pools.
		pin := DefaultInvokeOptions()
		pin.PU = dpu
		for i := 0; i < 2; i++ {
			if _, err := rt.Invoke(p, "helloworld", pin); err != nil {
				t.Fatal(err)
			}
		}
		checkWarmCounts(t, rt, "after pinned invokes")
		if err := rt.KillExecutor(p, dpu); err != nil {
			t.Fatal(err)
		}
		checkWarmCounts(t, rt, "after KillExecutor")

		// Crash reaping: repopulate the DPU, crash it, reap.
		if _, err := rt.Invoke(p, "pyaes", pin); err != nil {
			t.Fatal(err)
		}
		pl := faults.NewPlan(rt.Env, 1)
		rt.AttachFaults(pl)
		pl.Kill(dpu)
		rt.reapCrashed(p)
		checkWarmCounts(t, rt, "after reapCrashed")
		pl.Revive(dpu)
		rt.AttachFaults(nil)

		// Undeploy destroys every remaining warm instance of the function.
		if err := rt.Undeploy(p, "helloworld"); err != nil {
			t.Fatal(err)
		}
		checkWarmCounts(t, rt, "after Undeploy")
		if rec.warm != 0 {
			t.Errorf("helloworld's record counts %d warm after Undeploy, want 0", rec.warm)
		}

		// Undeploy during an invocation: the instance is destroyed when the
		// invocation ends, not pooled.
		done := sim.NewWaitGroup(rt.Env)
		done.Add(1)
		finished := false
		rt.Env.Spawn("in-flight", func(ip *sim.Proc) {
			defer done.Done()
			if _, err := rt.Invoke(ip, "pyaes", DefaultInvokeOptions()); err != nil {
				t.Error(err)
			}
			finished = true
		})
		p.Sleep(time.Microsecond)
		if finished {
			t.Fatal("the invocation finished before the undeploy")
		}
		if err := rt.Undeploy(p, "pyaes"); err != nil {
			t.Fatal(err)
		}
		done.Wait(p)
		checkWarmCounts(t, rt, "after undeploy during invoke")
		if r := rt.funcs["pyaes"]; r.warm != 0 || r.dep != nil {
			t.Errorf("pyaes's record: %d warm, deployment %v; want 0 and none", r.warm, r.dep)
		}
		// Nothing is in flight, so every live instance is a pooled one.
		warm := 0
		for _, n := range rt.orderedNodes() {
			warm += n.warmCount
		}
		if live := rt.LiveInstances(); live != warm {
			t.Errorf("%d live instances but %d pooled once the undeployed invocation ended", live, warm)
		}
	})
}

// scanGeneral is the reference placement: the pre-cache kind-then-PU-ID scan
// placeGeneral's fast path must agree with.
func scanGeneral(rt *Runtime, d *Deployment) *puNode {
	for _, kind := range generalKinds {
		if !d.SupportsKind(kind) {
			continue
		}
		for _, pu := range rt.Machine.PUsOfKind(kind) {
			n := rt.nodes[pu.ID]
			if n != nil && n.cr != nil && n.liveCount < n.capacity && !rt.puDown(pu.ID) {
				return n
			}
		}
	}
	return nil
}

// TestPlacementCacheMatchesScan checks the cached placement decision against
// the reference scan as capacity fills and PUs crash.
func TestPlacementCacheMatchesScan(t *testing.T) {
	run(t, hw.Config{DPUs: 2}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "helloworld", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		d := rt.funcs["helloworld"].dep
		if d.preferred == nil || d.preferred.pu.ID != rt.hostID {
			t.Fatalf("preferred node = %v, want host CPU", d.preferred)
		}
		check := func(when string) {
			t.Helper()
			want := scanGeneral(rt, d)
			got, err := rt.placeGeneral(d, -1)
			if want == nil {
				if err == nil {
					t.Errorf("%s: placeGeneral = PU %d, scan says no capacity", when, got.pu.ID)
				}
				return
			}
			if err != nil {
				t.Errorf("%s: placeGeneral error %v, scan picks PU %d", when, err, want.pu.ID)
				return
			}
			if got != want {
				t.Errorf("%s: placeGeneral = PU %d, scan = PU %d", when, got.pu.ID, want.pu.ID)
			}
		}

		check("fresh machine")

		// Preferred node full: the fast path must fall back to the scan's
		// answer (first DPU).
		hostCap := rt.nodes[rt.hostID].capacity
		rt.SetCapacity(rt.hostID, 0)
		check("host at capacity")

		// Preferred node down.
		rt.SetCapacity(rt.hostID, hostCap)
		pl := faults.NewPlan(rt.Env, 1)
		rt.AttachFaults(pl)
		pl.Kill(rt.hostID)
		check("host down")

		// Everything full or down.
		for _, pu := range rt.Machine.PUsOfKind(hw.DPU) {
			rt.SetCapacity(pu.ID, 0)
		}
		check("no capacity anywhere")
		pl.Revive(rt.hostID)
		rt.AttachFaults(nil)
		check("host revived")
	})
}

// TestSaturatedPlacementErrorPrebuilt: a placement refused because every
// live PU is full returns the deployment's prebuilt error: the same text
// as always, still wrapping ErrNoCapacity, and no allocation per attempt.
func TestSaturatedPlacementErrorPrebuilt(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "helloworld", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		for _, pu := range rt.Machine.PUs() {
			if pu.Kind.GeneralPurpose() {
				rt.SetCapacity(pu.ID, 0)
			}
		}
		d := rt.funcs["helloworld"].dep
		_, err := rt.placeGeneral(d, -1)
		if !errors.Is(err, ErrNoCapacity) {
			t.Fatalf("placeGeneral error %v, want one wrapping ErrNoCapacity", err)
		}
		if want := `molecule: ` + ErrNoCapacity.Error() + ` for "helloworld" on any live PU`; err.Error() != want {
			t.Errorf("error text %q, want %q", err, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { rt.placeGeneral(d, -1) }); allocs != 0 {
			t.Errorf("saturated placeGeneral allocates %v/op, want 0", allocs)
		}
	})
}

// BenchmarkInvokeWarm measures a steady-state warm invocation end to end —
// the path the O(1) warm lookup, cached placement, and interned labels are
// for.
func BenchmarkInvokeWarm(b *testing.B) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 1})
	reg := workloads.NewRegistry()
	env.Spawn("bench", func(p *sim.Proc) {
		rt, err := New(p, m, reg, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Deploy(p, "helloworld"); err != nil {
			b.Fatal(err)
		}
		opts := DefaultInvokeOptions()
		if _, err := rt.Invoke(p, "helloworld", opts); err != nil {
			b.Fatal(err) // cold start outside the timed region
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.Invoke(p, "helloworld", opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	env.Run()
}

// BenchmarkInvokeChainCrossPU measures a warm five-stage Alexa chain whose
// stages alternate between the host and two DPUs (chainRig's placement), so
// every hop but the gateway's is an nIPC edge: per call, wireChain builds
// and unwireChain releases eight XPU-FIFOs and two local FIFOs.
func BenchmarkInvokeChainCrossPU(b *testing.B) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 2})
	env.Spawn("bench", func(p *sim.Proc) {
		rt, chain, cross := chainRig(b, p, m)
		opts := ChainOptions{Placement: cross}
		if _, err := rt.InvokeChain(p, chain, opts); err != nil {
			b.Fatal(err) // cold starts outside the timed region
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.InvokeChain(p, chain, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	env.Run()
}

// TestInvokeChainAllocs pins the host allocations of one warm cross-PU
// chain (BenchmarkInvokeChainCrossPU's call) at chainCrossPUAllocs and
// their bytes at chainCrossPUBytes. The ceilings guard more than
// allocation speed: the benchmark's chain-nipc peak heap is bimodal, and
// garbage per op moves reps between the modes (a few hundred bytes per op
// sent most reps to the high one), so a change to a chain's allocations
// must be measured against the peak heap, not only against time.
func TestInvokeChainAllocs(t *testing.T) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 2})
	env.Spawn("client", func(p *sim.Proc) {
		rt, chain, cross := chainRig(t, p, m)
		opts := ChainOptions{Placement: cross}
		if _, err := rt.InvokeChain(p, chain, opts); err != nil {
			t.Fatal(err) // cold starts outside the measured calls
		}
		call := func() {
			if _, err := rt.InvokeChain(p, chain, opts); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, call)
		// Bytes as the benchmark's B/op counts them.
		const runs = 200
		// Keep the runtime's own allocations out of the count. Restarting
		// the world (at the end of a GC cycle, or of ReadMemStats) may
		// start an OS thread, whose m and g structs (about 5 KB) land on
		// the heap. So the count starts from a finished GC cycle, and
		// from a second ReadMemStats, whose restart finds the thread the
		// first one started idle. `make allocpins` runs this at GOGC=10
		// and 25.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&ms)
		bytes := (ms.TotalAlloc - before) / runs
		switch {
		case raceEnabled:
			// The calls still run under the detector; only the counts are
			// the detector's (35 allocs with go1.24).
			t.Logf("warm cross-PU chain allocates %v/op, %d B/op under the race detector", allocs, bytes)
		case allocs > chainCrossPUAllocs:
			t.Errorf("warm cross-PU chain allocates %v/op, want <= %d", allocs, chainCrossPUAllocs)
		case bytes > chainCrossPUBytes:
			t.Errorf("warm cross-PU chain allocates %d B/op, want <= %d", bytes, chainCrossPUBytes)
		default:
			t.Logf("warm cross-PU chain allocates %v/op, %d B/op", allocs, bytes)
		}
	})
	env.Run()
}

// chainCrossPUAllocs is TestInvokeChainAllocs's ceiling, measured on go1.24
// amd64: per call, the five stage processes with their closures and names,
// the WaitGroup and the edge-latency slice, the ten FIFO names, the
// gateway's OS process and address space, and acquireAll's two slices.
// Stages waiting on their FIFOs keep their read state in the recycled
// wiring, so the waits allocate nothing.
const chainCrossPUAllocs = 31

// chainCrossPUBytes is TestInvokeChainAllocs's B/op ceiling, measured on
// go1.24 amd64. BenchmarkInvokeChainCrossPU reads 2014-2015 B/op for the
// same call: its longer runs number the FIFO names with more digits.
const chainCrossPUBytes = 1976

// coldFn is the function the cold-path rig's callers invoke.
const coldFn = "matmul"

// coldRig boots a host-only runtime with the zygote forest on and a
// four-instance keep-alive cap, deploys a small cold-start mix and fills the
// host's warm pools to the cap, so from then on every release evicts one
// instance.
func coldRig(tb testing.TB, p *sim.Proc, m *hw.Machine) *Runtime {
	opts := DefaultOptions()
	opts.ZygoteTree = true
	opts.KeepWarmPerPU = 4
	rt, err := New(p, m, workloads.NewRegistry(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	mix := []string{coldFn, "pyaes", "linpack", "image-resize", "dd"}
	for _, fn := range mix {
		if err := rt.Deploy(p, fn); err != nil {
			tb.Fatal(err)
		}
	}
	cold := InvokeOptions{PU: -1, ForceCold: true}
	for i := 0; i < 64; i++ {
		if _, err := rt.Invoke(p, mix[i%len(mix)], cold); err != nil {
			tb.Fatal(err)
		}
	}
	if host := rt.nodes[rt.hostID]; host.warmCount != opts.KeepWarmPerPU {
		tb.Fatalf("host holds %d warm instances, want the cap %d", host.warmCount, opts.KeepWarmPerPU)
	}
	return rt
}

// TestColdInvokeAllocs pins the host allocations of one forced cold start
// under the zygote forest whose release evicts a warm instance: sandbox and
// instance records, the forked process with its name, address space and
// mapping list, the sandbox ID, and the pool refill's namespace and cgroup.
// The keep-alive choice, the zygote observation, the child's extents, the
// container names, the refill's callbacks and the fitter's rounds add
// nothing. A warm hit and a release that evicts nothing allocate nothing at
// all.
func TestColdInvokeAllocs(t *testing.T) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{})
	env.Spawn("client", func(p *sim.Proc) {
		rt := coldRig(t, p, m)
		cold := InvokeOptions{PU: -1, ForceCold: true}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := rt.Invoke(p, coldFn, cold); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > coldInvokeAllocs {
			t.Errorf("cold invoke with eviction allocates %v/op, want <= %d", allocs, coldInvokeAllocs)
		}

		// One instance out leaves the host below the cap, so each release
		// below evicts nothing.
		host := rt.nodes[rt.hostID]
		inst := rt.popWarm(rt.funcs[coldFn], rt.hostID)
		if inst == nil {
			t.Fatal("no warm instance to recycle")
		}
		if allocs := testing.AllocsPerRun(200, func() {
			rt.release(p, inst)
			inst = rt.popWarm(rt.funcs[coldFn], rt.hostID)
		}); allocs != 0 {
			t.Errorf("warm release below the cap allocates %v/op, want 0", allocs)
		}
		if host.warmCount != 3 {
			t.Errorf("host warm count %d after the warm cycles, want 3", host.warmCount)
		}
		rt.release(p, inst)
	})
	env.Run()
}

// coldInvokeAllocs is TestColdInvokeAllocs's ceiling, measured on go1.24
// amd64: the 10 objects listed there (the sandbox, molecule and lang
// instance records, the process, its name, address space and mapping list,
// the ID, and the refill's namespace and cgroup), with no scratch or
// regrowth. The pool holds prepared containers by value, and the refill
// runs as two bound scheduler callbacks, so neither a container record nor
// a process is allocated.
const coldInvokeAllocs = 10

// TestColdStartRefill pins the pool refill a cold start issues: the
// prepared container lands exactly ContainerCreateTime after the cold start
// returns, and the refill sequences the same events as the process it
// replaced, a spawned prewarm proc sleeping ContainerCreateTime, which the
// test keeps as its reference: Scheduled() matches at every probe.
func TestColdStartRefill(t *testing.T) {
	type probes struct{ sched, pool []int64 }
	run := func(spawnedRefill bool) probes {
		env := sim.NewEnv()
		m := hw.Build(env, hw.Config{})
		var got probes
		env.Spawn("client", func(p *sim.Proc) {
			rt := coldRig(t, p, m)
			p.Sleep(time.Second) // let the rig's refills and fitter rounds land
			host := rt.nodes[rt.hostID]
			d, err := rt.Deployment(coldFn)
			if err != nil {
				t.Fatal(err)
			}
			if spawnedRefill {
				rt.Opts.PrewarmContainers = 0 // the cold start refills nothing
			}
			n, err := rt.placeCold(p, d, rt.hostID, nil)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := rt.coldStart(p, d, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if spawnedRefill {
				env.Spawn("prewarm", func(bg *sim.Proc) { host.cr.Prewarm(bg, 1) })
			}
			probe := func() {
				got.sched = append(got.sched, env.Scheduled())
				got.pool = append(got.pool, int64(host.cr.PoolSize()))
			}
			probe()
			p.Sleep(params.ContainerCreateTime - 1)
			probe()
			p.Sleep(1)
			probe()
			rt.destroy(p, inst)
		})
		env.Run()
		return got
	}
	got, ref := run(false), run(true)
	pool := DefaultOptions().PrewarmContainers
	if want := []int64{int64(pool - 1), int64(pool - 1), int64(pool)}; !slices.Equal(got.pool, want) {
		t.Errorf("pool at +0, +ContainerCreateTime-1ns, +ContainerCreateTime = %v, want %v", got.pool, want)
	}
	if !slices.Equal(got.pool, ref.pool) || !slices.Equal(got.sched, ref.sched) {
		t.Errorf("callback refill: pool %v, Scheduled() %v; spawned refill: pool %v, Scheduled() %v",
			got.pool, got.sched, ref.pool, ref.sched)
	}
}

// BenchmarkInvokeCold measures a forced cold start on the host under the
// zygote forest, with the warm pools at the keep-alive cap so every release
// evicts: placement, zygote resolution and cfork, the residual imports, the
// pool refill and the keep-alive eviction.
func BenchmarkInvokeCold(b *testing.B) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{})
	env.Spawn("bench", func(p *sim.Proc) {
		rt := coldRig(b, p, m)
		cold := InvokeOptions{PU: -1, ForceCold: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.Invoke(p, coldFn, cold); err != nil {
				b.Fatal(err)
			}
		}
	})
	env.Run()
}

// TestUndeployDuringInvokePoolsNothing: an instance whose function is
// undeployed while it runs is destroyed when the invocation ends. Pooled,
// it would pin a capacity slot, and a redeploy would serve it warm.
func TestUndeployDuringInvokePoolsNothing(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if err := rt.Deploy(p, "linpack"); err != nil {
			t.Fatal(err)
		}
		done := sim.NewWaitGroup(rt.Env)
		done.Add(1)
		rt.Env.Spawn("in-flight", func(ip *sim.Proc) {
			defer done.Done()
			if _, err := rt.Invoke(ip, "linpack", DefaultInvokeOptions()); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(time.Millisecond)
		if err := rt.Undeploy(p, "linpack"); err != nil {
			t.Fatal(err)
		}
		done.Wait(p)
		for _, st := range rt.Snapshot() {
			if st.Live != 0 || st.Warm != 0 || st.WarmPerFunc["linpack"] != 0 {
				t.Errorf("PU %d after the undeployed invocation: live=%d warm=%d WarmPerFunc=%v, want nothing",
					st.PU, st.Live, st.Warm, st.WarmPerFunc)
			}
		}
		if err := rt.Deploy(p, "linpack"); err != nil {
			t.Fatal(err)
		}
		if res, err := rt.Invoke(p, "linpack", DefaultInvokeOptions()); err != nil || !res.Cold {
			t.Errorf("first invoke after the redeploy: cold=%v err=%v, want a cold start", res.Cold, err)
		}
	})
}

// TestInstanceSizeClass: an instance points at its function record rather
// than carrying the name, and stays within the 48-byte allocation size
// class every cold start pays for.
func TestInstanceSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(instance{}); size > 48 {
		t.Errorf("instance is %d bytes, want at most 48", size)
	}
}
