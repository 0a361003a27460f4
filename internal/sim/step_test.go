package sim

// Tests for stepped waits (Step, Proc.Wait, Env.SpawnWaiting), the host-cost
// counters, the event digest, and the Resource hand-off they rely on. The
// reference for every stepped wait is its blocking form: the same Step
// driven on the process's own coroutine, parking whenever it reports false.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// prefixRead is a read with a syscall prefix, shaped like xfifo_read: sleep
// pre, take a unit of res, sleep hold, release it, then receive on ch.
type prefixRead struct {
	pre, hold Duration
	res       *Resource
	ch        *Chan[int]
	cov       *stepCoverage
	phase     int
	v         int
	ok        bool
}

// stepCoverage records which cases a steppedProgram run reached.
type stepCoverage struct {
	closeInPrefix bool // a Close of a channel a read was still in its prefix for
	contended     bool // an AcquireStep that had to queue
}

// readDone is a prefixRead's phase once its wait is over.
const readDone = 5

func (r *prefixRead) Step(p *Proc, val any) bool {
	switch r.phase {
	case 0:
		r.phase = 1
		if !p.SleepStep(r.pre) {
			return false
		}
		fallthrough
	case 1:
		r.phase = 2
		if !r.res.AcquireStep(p) {
			if r.cov != nil {
				r.cov.contended = true
			}
			return false
		}
		fallthrough
	case 2:
		r.phase = 3
		if !p.SleepStep(r.hold) {
			return false
		}
		fallthrough
	case 3:
		r.res.Release()
		ok, got := r.ch.RecvStep(p, &r.v)
		if !got {
			r.phase = 4
			return false
		}
		r.ok, r.phase = ok, readDone
		return true
	default:
		r.ok = r.ch.Handed(val, &r.v)
		r.phase = readDone
		return true
	}
}

// block drives s on p's own coroutine: the blocking form of a stepped wait.
func block(p *Proc, s Step) {
	for val := any(nil); !s.Step(p, val); {
		val = p.Park()
	}
}

// steppedProgram returns a seeded program of processes that sleep, send,
// close channels, schedule callbacks and spawn readers, and read
// through prefixRead on a shared capacity-1 Resource. With stepped set the
// reads are stepped waits (Proc.Wait, Env.SpawnWaiting); otherwise they are
// the same steps driven by block. Every random draw happens in a body or a
// callback, never in a step, so both forms draw alike as long as their
// events run in the same order.
func steppedProgram(seed int64, stepped bool, cov *stepCoverage) func(e *Env) {
	return func(e *Env) {
		rng := rand.New(rand.NewSource(seed))
		delays := []Duration{0, 1, 1, 2, 3, 5}
		delay := func() Duration { return delays[rng.Intn(len(delays))] }
		res := NewResource(e, 1)
		chans := []*Chan[int]{NewChan[int](e, 0), NewChan[int](e, 1), NewChan[int](e, 2)}
		var procs []*Proc
		var reads []*prefixRead // every read started, for the coverage check
		newRead := func() *prefixRead {
			r := &prefixRead{pre: delay(), hold: delay(), res: res, ch: chans[rng.Intn(len(chans))], cov: cov}
			reads = append(reads, r)
			return r
		}
		closeChan := func(ch *Chan[int]) {
			for _, r := range reads {
				if r.ch == ch && r.phase > 0 && r.phase < 4 {
					cov.closeInPrefix = true
				}
			}
			ch.Close()
		}
		read := func(p *Proc) {
			r := newRead()
			if stepped {
				p.Wait(r)
			} else {
				block(p, r)
			}
			p.Tracef("read %d %v", r.v, r.ok)
		}
		// spawnReader starts a process whose body begins with a read.
		spawnReader := func(name string) {
			r := newRead()
			body := func(p *Proc) {
				p.Tracef("started with %d %v", r.v, r.ok)
				p.Sleep(delay())
				p.Tracef("done")
			}
			if stepped {
				procs = append(procs, e.SpawnWaiting(name, r, body))
			} else {
				procs = append(procs, e.Spawn(name, func(p *Proc) {
					block(p, r)
					body(p)
				}))
			}
		}
		callback := func() {
			op := rng.Intn(8)
			e.Tracef("cb op %d", op)
			switch op {
			case 0, 1, 2, 4:
				if ch := chans[rng.Intn(len(chans))]; !ch.Closed() {
					e.Tracef("trysend %v", ch.TrySend(rng.Intn(100)))
				}
			case 3:
				spawnReader(fmt.Sprintf("reader%d", len(procs)))
			case 5:
				if rng.Intn(4) == 0 {
					closeChan(chans[rng.Intn(len(chans))])
				}
			}
		}
		for i := 0; i < 4; i++ {
			procs = append(procs, e.Spawn(fmt.Sprintf("proc%d", i), func(p *Proc) {
				for step := 0; step < 20; step++ {
					op := rng.Intn(10)
					p.Tracef("step %d op %d", step, op)
					switch op {
					case 0, 1, 9:
						p.Sleep(delay())
					case 2, 3:
						e.AfterFunc(delay(), callback)
					case 4, 5, 6:
						read(p)
					case 7:
						if ch := chans[rng.Intn(len(chans))]; !ch.Closed() {
							p.Tracef("trysend %v", ch.TrySend(step))
						}
					case 8:
						spawnReader(fmt.Sprintf("reader%d", len(procs)))
					}
				}
			}))
		}
	}
}

// TestSteppedWaitDifferential runs seeded programs of stepped waits and
// their blocking forms on every driver and requires identical traces,
// Scheduled(), end times and digests. The programs close channels during a
// read's prefix and contend on the Resource; the test fails if the
// generator stops covering either.
func TestSteppedWaitDifferential(t *testing.T) {
	var cov stepCoverage
	var cost HostCost
	for seed := int64(0); seed < 200; seed++ {
		want := kernelRunners[0].run(steppedProgram(seed, false, new(stepCoverage)))
		for _, r := range kernelRunners {
			var env *Env
			got := r.run(func(e *Env) {
				env = e
				steppedProgram(seed, true, &cov)(e)
			})
			cost = cost.Add(env.HostCost())
			if got.sched != want.sched || got.end != want.end || got.digest != want.digest {
				t.Fatalf("seed %d: stepped on %s ran sched=%d end=%v digest=%x, blocking sched=%d end=%v digest=%x",
					seed, r.name, got.sched, got.end, got.digest, want.sched, want.end, want.digest)
			}
			if !slices.Equal(got.trace, want.trace) {
				t.Fatalf("seed %d: stepped on %s trace differs from blocking\n got %v\nwant %v", seed, r.name, got.trace, want.trace)
			}
		}
	}
	if !cov.closeInPrefix || !cov.contended || cost.Stepped == 0 {
		t.Fatalf("generator coverage %+v, %d stepped resumes: a case is no longer reached", cov, cost.Stepped)
	}
}

// TestSpawnWaitingStartsAfterWait: a process spawned parked takes no
// coroutine until its wait is over, then starts its body holding the
// value. Its prefix and its wait for the value cost stepped resumes, not
// switches.
func TestSpawnWaitingStartsAfterWait(t *testing.T) {
	e := NewEnv()
	e.EnableTrace()
	ch := NewChan[int](e, 0)
	r := &prefixRead{pre: 3, hold: 2, res: NewResource(e, 1), ch: ch}
	reader := e.SpawnWaiting("reader", r, func(p *Proc) {
		p.Tracef("got %d %v", r.v, r.ok)
	})
	e.Spawn("sender", func(p *Proc) {
		p.Sleep(4)
		if reader.co != nil {
			t.Error("reader holds a coroutine before its wait is over")
		}
		p.Sleep(6)
		ch.Send(p, 7)
	})
	e.Run()
	wantTrace(t, kernelRun{trace: e.TraceLog()}, "10 reader got 7 true")
	// The spawn starts: the sender's is a switch, the reader's a stepped
	// resume that sleeps 3; its wake acquires the unit and sleeps 2; the
	// next joins the receivers. The sender's two wakes are switches, and
	// the hand-off starts the reader's body.
	want := HostCost{Switches: 4, Pops: 7, Stepped: 3}
	if got := e.HostCost(); got != want {
		t.Fatalf("host cost %+v, want %+v", got, want)
	}
}

// endingRead is a prefixRead whose process ends in its wait: once the read
// is over it records the value and calls EndInWait, so the process's body
// never starts.
type endingRead struct {
	prefixRead
	got *[]int
}

func (r *endingRead) Step(p *Proc, val any) bool {
	if !r.prefixRead.Step(p, val) {
		return false
	}
	*r.got = append(*r.got, r.v)
	p.EndInWait()
	return true
}

// TestSpawnWaitingEndsInWait: a process that ends in its stepped wait never
// takes a coroutine. Its prefix, its queue for the contended unit and its
// receive are stepped resumes, and it exits when the wait is over, leaving
// no live process, nothing in BlockedProcs and nothing on the idle list.
func TestSpawnWaitingEndsInWait(t *testing.T) {
	e := NewEnv()
	ch := NewChan[int](e, 0)
	res := NewResource(e, 1)
	var got []int
	for i := 0; i < 3; i++ {
		r := &endingRead{prefixRead: prefixRead{pre: 3, hold: 2, res: res, ch: ch}, got: &got}
		e.SpawnWaiting("reader", r, func(*Proc) {
			t.Error("the body of a process that ended in its wait started")
		})
	}
	e.At(20, func() {
		for i := 0; i < 3; i++ {
			if !ch.TrySend(i) {
				t.Errorf("send %d found no parked reader", i)
			}
		}
	})
	e.At(30, func() {
		if e.LiveProcs() != 0 || len(e.BlockedProcs()) != 0 || len(e.idle) != 0 {
			t.Errorf("after the reads: %d live procs, blocked %v, %d idle coroutines; want none",
				e.LiveProcs(), e.BlockedProcs(), len(e.idle))
		}
	})
	e.Run()
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("readers got %v, want [0 1 2]", got)
	}
	if c := e.HostCost(); c.Switches != 0 || c.Stepped == 0 {
		t.Errorf("host cost %+v, want no switches and some stepped resumes", c)
	}
}

// TestEndInWaitAfterBodyStartPanics: a process whose body has started
// cannot end in a wait, since its coroutine is mid-body; the kernel panics
// rather than strand it.
func TestEndInWaitAfterBodyStartPanics(t *testing.T) {
	e := NewEnv()
	ch := NewChan[int](e, 0)
	var got []int
	e.Spawn("reader", func(p *Proc) {
		p.Wait(&endingRead{prefixRead: prefixRead{pre: 3, hold: 2, res: NewResource(e, 1), ch: ch}, got: &got})
	})
	e.Spawn("sender", func(p *Proc) {
		p.Sleep(10)
		ch.Send(p, 1)
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "EndInWait") {
			t.Errorf("Run recovered %v, want the EndInWait panic", r)
		}
	}()
	e.Run()
}

// TestWaitStepsInlineWhileRunning: a running process that enters a stepped
// wait runs its steps on its own coroutine, taking the Sleep fast path and
// firing due callbacks inline, for as long as it could have kept running;
// only then does it park, and the rest of the wait costs no switch until
// the wait is over.
func TestWaitStepsInlineWhileRunning(t *testing.T) {
	e := NewEnv()
	ch := NewChan[int](e, 1)
	e.Spawn("reader", func(p *Proc) {
		ch.TrySend(5)
		r := &prefixRead{pre: 3, hold: 2, res: NewResource(e, 1), ch: ch}
		p.Wait(r) // nothing else is queued: the whole wait runs inline
		if p.Now() != 5 || r.v != 5 || !r.ok {
			t.Errorf("inline wait ended at %v with %d %v, want 5 with 5 true", p.Now(), r.v, r.ok)
		}
		e.Spawn("closer", func(c *Proc) {
			c.Sleep(5) // fires the callback below inline
			ch.Close()
		})
		e.AfterFunc(1, func() {})
		r = &prefixRead{pre: 3, hold: 2, res: NewResource(e, 1), ch: ch}
		p.Wait(r) // the closer's start orders first: park, then step
		if p.Now() != 10 || r.ok {
			t.Errorf("second wait ended at %v with ok %v, want 10 with the channel closed", p.Now(), r.ok)
		}
	})
	e.Run()
	// Switches: the two spawn starts, the closer's wake at 10 and the
	// reader's last resume, at 10, which finds the channel closed. The
	// reader's wake at 8 takes the unit and sleeps again: stepped.
	want := HostCost{Switches: 4, Pops: 6, Inline: 1, Stepped: 1}
	if got := e.HostCost(); got != want {
		t.Fatalf("host cost %+v, want %+v", got, want)
	}
}

// TestSteppedWaitAllocs: a stepped wait whose step lives in a long-lived
// object allocates nothing, contended or not.
func TestSteppedWaitAllocs(t *testing.T) {
	e := NewEnv()
	ch := NewChan[int](e, 1)
	r := &prefixRead{pre: 1, hold: 1, res: NewResource(e, 1), ch: ch}
	e.Spawn("reader", func(p *Proc) {
		if allocs := testing.AllocsPerRun(100, func() {
			ch.TrySend(1)
			r.phase = 0
			p.Wait(r)
		}); allocs != 0 {
			t.Errorf("stepped wait allocates %v/op, want 0", allocs)
		}
	})
	e.Spawn("ticker", func(p *Proc) { // keeps the reader's wakes queued
		for i := 0; i < 1000; i++ {
			p.Sleep(1)
		}
	})
	e.Run()
	if e.HostCost().Stepped == 0 {
		t.Fatal("no wake ran as a stepped resume: the test no longer contends")
	}
}

// TestDigest: the digest is 0 until enabled, and it tells apart two runs
// whose events are the same but fire in a different order.
func TestDigest(t *testing.T) {
	run := func(enable bool, first, second Duration) uint64 {
		e := NewEnv()
		if enable {
			e.EnableDigest()
		}
		e.Spawn("a", func(p *Proc) { p.Sleep(first) })
		e.Spawn("b", func(p *Proc) { p.Sleep(second) })
		e.Run()
		return e.Digest()
	}
	if d := run(false, 1, 2); d != 0 {
		t.Fatalf("digest %x with the digest off, want 0", d)
	}
	if a, b := run(true, 1, 2), run(true, 1, 2); a != b || a == 0 {
		t.Fatalf("digests %x and %x of one program differ", a, b)
	}
	if a, b := run(true, 1, 2), run(true, 2, 1); a == b {
		t.Fatalf("digest %x does not see the wake order", a)
	}
}

// TestResourceReleaseSkipsInterruptedWaiter is the regression test for a
// unit leak: Release handed the unit to a queued waiter that could no
// longer take it, so the unit never came back. The waiter queues through
// AcquireStep and exits without waiting; the holder releases, and a later
// Acquire must get the unit.
func TestResourceReleaseSkipsInterruptedWaiter(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	acquired := false
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		e.Spawn("waiter", func(w *Proc) {
			if r.AcquireStep(w) {
				t.Error("AcquireStep took a held unit")
			}
		})
		p.Sleep(0) // the waiter queues and exits
		r.Release()
		if r.InUse() != 0 {
			t.Errorf("%d units in use after the only holder released", r.InUse())
		}
		e.Spawn("later", func(l *Proc) {
			r.Acquire(l)
			acquired = true
			r.Release()
		})
	})
	e.Run()
	if !acquired || e.LiveProcs() != 0 {
		t.Fatalf("later acquire got the unit %v, %d procs live: %v", acquired, e.LiveProcs(), e.BlockedProcs())
	}
}

// TestProcFitsSizeClass holds Proc to the 80-byte allocation class its
// field layout is chosen for: one more word would cost every process 16
// bytes.
func TestProcFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n > 80 {
		t.Fatalf("Proc is %d bytes, want <= 80", n)
	}
}

// TestEventFitsSizeClass holds event to the 48-byte allocation class: a
// resume's value is a bare any, so every scheduled event costs 48 bytes,
// not 64.
func TestEventFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 48 {
		t.Fatalf("event is %d bytes, want <= 48", n)
	}
}
