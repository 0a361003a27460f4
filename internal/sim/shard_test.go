package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The coupled workload: cm simulated machines, each a driver process doing
// quantized sleeps whose durations depend on how many cross-machine messages
// the machine has received so far (so the cross-domain edges are load-
// bearing: any synchronization bug changes the fingerprint). Every machine's
// events occupy a distinct residue class of the time quantum cq, so no two
// machines ever act at the same instant and the merged trace has one total
// order regardless of how machines are grouped into domains.
const (
	cm     = 6         // machines
	cq     = 2*cm + 2  // time quantum (ns): residues 1..cm for machines, cm+2..2cm+1 for arrivals
	cInv   = 40        // invocations per machine
	cLA    = 1000 * cq // lookahead (ns), a multiple of the quantum
	cEvery = 3         // send a cross-machine message every cEvery invocations
)

type coupledState struct {
	inv  [cm]int
	recv [cm]int
	done [cm]Time
}

// coupledBody returns machine m's driver. send schedules fn on machine k
// after delay, through whatever cross-machine mechanism the variant under
// test uses.
func coupledBody(st *coupledState, m int, send func(p *Proc, k int, delay Duration, fn func())) func(*Proc) {
	return func(p *Proc) {
		p.Sleep(Duration(m + 1)) // enter machine m's residue class
		for n := 0; n < cInv; n++ {
			service := Duration(cq * (50 + n%7 + 3*(st.recv[m]%5)))
			p.Sleep(service)
			st.inv[m]++
			p.Tracef("m%d inv %d recv %d", m, n, st.recv[m])
			if n%cEvery == 0 {
				k := (m + 1) % cm
				// delay >= lookahead, adjusted onto the arrival residue
				// class of machine k.
				delay := Duration(cLA + ((cm+2+k-(m+1))%cq+cq)%cq)
				send(p, k, delay, func() { st.recv[k]++ })
			}
		}
		st.done[m] = p.Now()
	}
}

type coupledRun struct {
	fp    string
	trace string
	sched int64
}

func fingerprint(st *coupledState, sched int64) string {
	return fmt.Sprintf("inv=%v recv=%v done=%v sched=%d", st.inv, st.recv, st.done, sched)
}

func renderTrace(evs []TraceEvent) string {
	var b strings.Builder
	for _, ev := range evs {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// runCoupledSharded runs the workload on a Sharded group with the given
// domain and worker counts; machine m lives on domain m % domains. When
// lookahead is false the group runs in the zero-lookahead sequential merge.
// Each opt adjusts the group before its processes are spawned.
func runCoupledSharded(domains, workers int, lookahead bool, opts ...func(*Sharded)) coupledRun {
	sh := NewSharded(domains)
	if lookahead {
		sh.LimitLookahead(cLA)
	}
	for _, opt := range opts {
		opt(sh)
	}
	sh.EnableTrace()
	var st coupledState
	for m := 0; m < cm; m++ {
		m := m
		dom := sh.Domain(m % domains)
		send := func(p *Proc, k int, delay Duration, fn func()) {
			dst := sh.Domain(k % domains)
			sh.Send(p.Env(), k%domains, delay, func() {
				fn()
				dst.Tracef("recv m%d", k)
			})
		}
		dom.Spawn(fmt.Sprintf("machine-%d", m), coupledBody(&st, m, send))
	}
	sh.Run(workers)
	return coupledRun{
		fp:    fingerprint(&st, sh.Scheduled()),
		trace: renderTrace(sh.TraceLog()),
		sched: sh.Scheduled(),
	}
}

// runCoupledPlain runs the identical workload on one classic Env — the
// pre-sharding kernel — with cross-machine messages as AfterFunc callbacks.
func runCoupledPlain() coupledRun {
	env := NewEnv()
	env.EnableTrace()
	var st coupledState
	for m := 0; m < cm; m++ {
		send := func(p *Proc, k int, delay Duration, fn func()) {
			env.AfterFunc(delay, func() {
				fn()
				env.Tracef("recv m%d", k)
			})
		}
		env.Spawn(fmt.Sprintf("machine-%d", m), coupledBody(&st, m, send))
	}
	env.Run()
	return coupledRun{
		fp:    fingerprint(&st, env.Scheduled()),
		trace: renderTrace(env.TraceLog()),
		sched: env.Scheduled(),
	}
}

// forceSplit makes every windowed round of sh go to the worker goroutines,
// however few events the round before it fired. The coupled workload's
// rounds stay below splitMin, so without it a multi-worker run would never
// leave the Run goroutine.
func forceSplit(sh *Sharded) { sh.split = 0 }

// TestShardedMatchesSequential is the determinism contract of the sharded
// kernel: the coupled workload must produce bit-identical fingerprints and
// trace logs on the classic single-heap kernel and on every sharding —
// any domain partition, any worker count, windowed or sequential-merge,
// with small rounds inline or forced onto the workers.
func TestShardedMatchesSequential(t *testing.T) {
	ref := runCoupledPlain()
	if ref.sched == 0 || len(ref.trace) == 0 {
		t.Fatal("reference run produced no events")
	}
	cases := []struct {
		name      string
		domains   int
		workers   int
		lookahead bool
	}{
		{"d1-w1-windowed", 1, 1, true},
		{"d2-w1", 2, 1, true},
		{"d2-w2", 2, 2, true},
		{"d3-w4", 3, 4, true},
		{"d6-w1", 6, 1, true},
		{"d6-w4", 6, 4, true},
		{"d6-wNumCPU", 6, runtime.NumCPU(), true},
		{"d6-merge", 6, 1, false},
		{"d4-merge", 4, 1, false},
	}
	check := func(name string, got coupledRun) {
		if got.fp != ref.fp {
			t.Errorf("%s: fingerprint diverged\n got: %s\nwant: %s", name, got.fp, ref.fp)
		}
		if got.trace != ref.trace {
			t.Errorf("%s: trace log diverged (%d vs %d bytes)", name, len(got.trace), len(ref.trace))
		}
	}
	for _, c := range cases {
		check(c.name, runCoupledSharded(c.domains, c.workers, c.lookahead))
		if c.lookahead && c.workers > 1 {
			check(c.name+"-split", runCoupledSharded(c.domains, c.workers, c.lookahead, forceSplit))
		}
	}
}

// TestShardedRepeatable pins run-to-run determinism at a fixed configuration
// (the wall-clock schedule of the worker pool must not leak into results).
func TestShardedRepeatable(t *testing.T) {
	a := runCoupledSharded(3, 4, true, forceSplit)
	b := runCoupledSharded(3, 4, true, forceSplit)
	if a.fp != b.fp || a.trace != b.trace {
		t.Fatal("two identical sharded runs diverged")
	}
}

// TestShardedSingleDomainIsClassicRun: with one domain and no lookahead,
// Sharded.Run is exactly Env.Run — same code path, same bytes.
func TestShardedSingleDomainIsClassicRun(t *testing.T) {
	run := func(mk func() (*Env, func() Time)) string {
		env, drive := mk()
		env.EnableTrace()
		for i := 0; i < 3; i++ {
			i := i
			env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for n := 0; n < 5; n++ {
					p.Sleep(Duration(i+1) * time.Microsecond)
					p.Tracef("tick %d", n)
				}
			})
		}
		drive()
		return renderTrace(env.TraceLog())
	}
	plain := run(func() (*Env, func() Time) {
		e := NewEnv()
		return e, e.Run
	})
	sharded := run(func() (*Env, func() Time) {
		sh := NewSharded(1)
		return sh.Domain(0), func() Time { return sh.Run(1) }
	})
	if plain != sharded {
		t.Fatal("single-domain sharded run diverged from Env.Run")
	}
}

// TestShardedWindowedSingleDomain: a single-domain group with a lookahead
// runs through the windowed driver and must still match the classic loop —
// the window machinery is transparent when no cross-domain edges exist.
func TestShardedWindowedSingleDomain(t *testing.T) {
	build := func(env *Env) *coupledState {
		var st coupledState
		for m := 0; m < cm; m++ {
			send := func(p *Proc, k int, delay Duration, fn func()) {
				env.AfterFunc(delay, fn)
			}
			env.Spawn(fmt.Sprintf("machine-%d", m), coupledBody(&st, m, send))
		}
		return &st
	}
	plainEnv := NewEnv()
	plainEnv.EnableTrace()
	stPlain := build(plainEnv)
	plainEnv.Run()

	sh := NewSharded(1)
	sh.LimitLookahead(cLA)
	env := sh.Domain(0)
	env.EnableTrace()
	stSh := build(env)
	sh.Run(4)

	if fingerprint(stPlain, plainEnv.Scheduled()) != fingerprint(stSh, env.Scheduled()) {
		t.Fatal("windowed single-domain run diverged from classic loop")
	}
	if renderTrace(plainEnv.TraceLog()) != renderTrace(sh.TraceLog()) {
		t.Fatal("windowed single-domain trace diverged from classic loop")
	}
	if env.windowBound != 0 {
		t.Fatalf("windowBound not restored after Run: %d", env.windowBound)
	}
}

// TestSendBelowLookaheadPanics: violating the conservative bound is a
// programming error, not a silent race.
func TestSendBelowLookaheadPanics(t *testing.T) {
	sh := NewSharded(2)
	sh.LimitLookahead(time.Millisecond)
	sh.Domain(0).Spawn("sender", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Send below lookahead did not panic")
			}
			panic(Interrupted{Proc: "sender"}) // unwind cleanly
		}()
		sh.Send(p.Env(), 1, time.Microsecond, func() {})
	})
	sh.Run(1)
}

// TestSendOutsideGroupPanics: an Env can only send within its own group.
func TestSendOutsideGroupPanics(t *testing.T) {
	sh := NewSharded(2)
	other := NewEnv()
	defer func() {
		if recover() == nil {
			t.Error("Send from foreign Env did not panic")
		}
	}()
	sh.Send(other, 1, time.Millisecond, func() {})
}

// TestShardedBlockedProcs: blocked-process diagnostics merge across domains
// in sorted order, per the documented BlockedProcs guarantee.
func TestShardedBlockedProcs(t *testing.T) {
	sh := NewSharded(2)
	chA := NewChan[int](sh.Domain(0), 0)
	chB := NewChan[int](sh.Domain(1), 0)
	sh.Domain(1).Spawn("zeta-stuck", func(p *Proc) { chB.Recv(p) })
	sh.Domain(0).Spawn("alpha-stuck", func(p *Proc) { chA.Recv(p) })
	sh.Domain(0).Spawn("done", func(p *Proc) { p.Sleep(time.Microsecond) })
	sh.LimitLookahead(time.Millisecond)
	sh.Run(2)
	got := sh.BlockedProcs()
	if len(got) != 2 || got[0] != "alpha-stuck" || got[1] != "zeta-stuck" {
		t.Fatalf("BlockedProcs = %v, want [alpha-stuck zeta-stuck]", got)
	}
	if sh.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d, want 2", sh.LiveProcs())
	}
}

// TestShardedStop: Stop in any domain halts the whole group at the next
// barrier without deadlocking the driver.
func TestShardedStop(t *testing.T) {
	sh := NewSharded(2)
	sh.LimitLookahead(time.Millisecond)
	var after int
	sh.Domain(0).Spawn("stopper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.Env().Stop()
	})
	sh.Domain(1).Spawn("worker", func(p *Proc) {
		for {
			p.Sleep(100 * time.Millisecond)
			after++
		}
	})
	end := sh.Run(2)
	if end < Time(10*time.Millisecond) {
		t.Fatalf("stopped too early: %v", end)
	}
	if after > 1 {
		t.Fatalf("worker kept running after Stop: %d iterations", after)
	}
}

// TestShardedClockMonotone: every domain's clock only moves forward, and
// Clocks/Now agree with per-domain observations.
func TestShardedClockMonotone(t *testing.T) {
	sh := NewSharded(3)
	sh.LimitLookahead(time.Millisecond)
	var last [3]Time
	for d := 0; d < 3; d++ {
		d := d
		sh.Domain(d).Spawn("ticker", func(p *Proc) {
			for n := 0; n < 100; n++ {
				p.Sleep(Duration(d+1) * 100 * time.Microsecond)
				if p.Now() < last[d] {
					t.Errorf("domain %d clock regressed: %v < %v", d, p.Now(), last[d])
				}
				last[d] = p.Now()
			}
		})
	}
	sh.Run(3)
	for d, c := range sh.Clocks() {
		if c != last[d] {
			t.Errorf("domain %d final clock %v != last observation %v", d, c, last[d])
		}
	}
	if sh.Now() != last[2] {
		t.Errorf("group Now %v != max domain clock %v", sh.Now(), last[2])
	}
}

// onWorker reports whether its caller runs on one of runRound's worker
// goroutines rather than on the goroutine that called Run.
func onWorker() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, "(*Sharded).runRound") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestRoundSplitsAboveThreshold pins when a windowed round leaves the Run
// goroutine: exactly when the round before it fired at least splitMin
// events (the first round counts as following an empty one).
func TestRoundSplitsAboveThreshold(t *testing.T) {
	const la = time.Millisecond
	sh := NewSharded(2)
	sh.LimitLookahead(la)
	var got []bool // one probe per round
	probe := func() { got = append(got, onWorker()) }
	// Round 1, [0, la): the probe plus fillers, splitMin events in all
	// (just the probe if splitMin is 0).
	sh.Domain(1).At(0, probe)
	for i := 0; i < splitMin-1; i++ {
		sh.Domain(i%2).At(Time(i+1), func() {})
	}
	// Round 2 opens at la and follows round 1; round 3 opens at 3·la and
	// follows round 2's lone probe.
	sh.Domain(0).At(Time(la), probe)
	sh.Domain(1).At(Time(3*la), probe)
	sh.Run(2)
	want := []bool{splitMin == 0, true, splitMin <= 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rounds on workers = %v, want %v (splitMin %d)", got, want, splitMin)
	}
}

// TestDeliverAllocs pins the barrier merge at zero allocations: sorting and
// enqueueing a round of cross-domain messages reuses the merge buffer and
// the destination's event pool. The messages share one closure, so nothing
// here is the caller's own allocation.
func TestDeliverAllocs(t *testing.T) {
	const la = time.Microsecond
	sh := NewSharded(2)
	sh.LimitLookahead(la)
	fn := func() {}
	round := func() {
		// 2×13 messages with three distinct arrival times: more than the
		// 12 the sort handles by insertion alone.
		for d := 0; d < 2; d++ {
			for i := 0; i < 13; i++ {
				sh.Send(sh.Domain(d), 1-d, la+Duration(i%3), fn)
			}
		}
		if n := sh.deliver(); n != 26 {
			t.Fatalf("delivered %d messages, want 26", n)
		}
		bound := sh.Now().After(10 * la)
		for _, d := range sh.doms {
			d.window(bound)
		}
	}
	round() // size the buffers and pools
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a delivered round allocates %.1f times, want 0", avg)
	}
}

// BenchmarkShardedRound measures the host cost of one windowed round of D=5
// domains that each fire K events of fixed host work, at workers=1 (inline)
// and workers=2 (every round dispatched to runRound). ns/op is ns per round;
// the K where workers=2 starts to win is the break-even behind splitMin.
//
//	go test ./internal/sim -run '^$' -bench ShardedRound -benchmem
func BenchmarkShardedRound(b *testing.B) {
	const domains = 5
	for _, k := range []int{1, 8, 32, 64, 96, 128, 256, 512} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("K=%d/workers=%d", k, workers), func(b *testing.B) {
				b.ReportAllocs()
				sh := NewSharded(domains)
				forceSplit(sh)
				// Events are 1 ns apart and a window is K ns wide, so every
				// round fires exactly K events per domain.
				sh.LimitLookahead(Duration(k))
				lanes := make([]benchLane, domains)
				for d := range lanes {
					l, env := &lanes[d], sh.Domain(d)
					l.left, l.x = b.N*k, uint64(d+1)
					var tick func()
					tick = func() {
						l.x = spin(l.x)
						if l.left--; l.left > 0 {
							env.AfterFunc(1, tick)
						}
					}
					env.At(0, tick)
				}
				b.ResetTimer()
				sh.Run(workers)
			})
		}
	}
}

// benchLane is one domain's state in BenchmarkShardedRound, padded to its
// own cache line so two workers never share one.
type benchLane struct {
	left int
	x    uint64
	_    [48]byte
}

// spin is BenchmarkShardedRound's fixed per-event host work, about 100 ns.
func spin(x uint64) uint64 {
	for i := 0; i < 40; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}
