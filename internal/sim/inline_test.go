package sim

// Tests for the callbacks Proc.Sleep fires inline before its wake-up. Every
// case runs on the classic loop and on windowed groups whose bounds stop
// the inline path and the fast path at different events, and the runs must
// agree event for event.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// kernelRun is what a run exposes for comparison.
type kernelRun struct {
	trace  []TraceEvent
	sched  int64
	end    Time
	digest uint64
}

// runner is one kernel driver: run builds a program on a fresh Env, drives
// it, and captures its trace, Scheduled(), end time and event digest.
type runner struct {
	name string
	run  func(program func(e *Env)) kernelRun
}

// windowed returns the driver that runs a program on domain 0 of a group
// of n domains with a 4 ns lookahead; the other domains stay empty.
func windowed(n int) runner {
	return runner{fmt.Sprintf("windowed-%d", n), func(program func(e *Env)) kernelRun {
		sh := NewSharded(n)
		sh.LimitLookahead(4)
		sh.EnableTrace()
		sh.Domain(0).EnableDigest()
		program(sh.Domain(0))
		end := sh.Run()
		return kernelRun{sh.TraceLog(), sh.Scheduled(), end, sh.Domain(0).Digest()}
	}}
}

// kernelRunners are the drivers a program must behave identically on: the
// classic loop (inline and fast path on) and windowed groups of 1, 2 and 4
// domains (both on, capped at each window's bound). The program runs on
// domain 0; the other domains stay empty.
var kernelRunners = []runner{
	{"plain", func(program func(e *Env)) kernelRun {
		e := NewEnv()
		e.EnableTrace()
		e.EnableDigest()
		program(e)
		end := e.Run()
		return kernelRun{e.TraceLog(), e.Scheduled(), end, e.Digest()}
	}},
	windowed(1), windowed(2), windowed(4),
}

// randomProgram returns a seeded program of Spawn, Sleep, At/AfterFunc and
// TrySend/Recv. Every random draw happens inside a process body or a
// callback, so the draws, and with them the program, follow the order in
// which the kernel runs events: two kernels that order events differently
// produce different traces. Delays come from a handful of tiny values so
// wake-ups and callbacks often tie.
func randomProgram(seed int64) func(e *Env) {
	return func(e *Env) {
		rng := rand.New(rand.NewSource(seed))
		delays := []Duration{0, 1, 1, 2, 3, 5, 8}
		delay := func() Duration { return delays[rng.Intn(len(delays))] }
		chans := []*Chan[int]{NewChan[int](e, 0), NewChan[int](e, 1)}
		children := 0
		var callback func(depth int) func()
		callback = func(depth int) func() {
			return func() {
				op := rng.Intn(12)
				e.Tracef("cb depth %d op %d", depth, op)
				switch op {
				case 0, 1:
					if depth < 3 {
						e.AfterFunc(delay(), callback(depth+1))
					}
				case 2:
					if depth < 3 {
						e.At(e.Now().After(delay()), callback(depth+1))
					}
				case 3, 4, 6:
					e.Tracef("trysend %v", chans[rng.Intn(2)].TrySend(rng.Intn(100)))
				case 5, 7:
					e.Spawn(fmt.Sprintf("child%d", children), func(p *Proc) {
						p.Sleep(delay())
						p.Tracef("child done")
					})
					children++
				}
			}
		}
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("proc%d", i), func(p *Proc) {
				for step := 0; step < 25; step++ {
					op := rng.Intn(10)
					p.Tracef("step %d op %d", step, op)
					switch op {
					case 0, 1, 2, 3, 9:
						p.Sleep(delay())
					case 4, 5:
						e.AfterFunc(delay(), callback(0))
					case 6:
						e.At(e.Now().After(delay()), callback(0))
					case 7:
						p.Tracef("trysend %v", chans[rng.Intn(2)].TrySend(step))
					case 8:
						v, ok := chans[rng.Intn(2)].Recv(p)
						p.Tracef("recv %d %v", v, ok)
					}
				}
			})
		}
	}
}

// TestInlineDifferential runs seeded random programs on every driver and
// requires identical traces, Scheduled(), end times and event digests: the
// inline callbacks and the fast path are invisible.
func TestInlineDifferential(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		var want kernelRun
		for i, r := range kernelRunners {
			got := r.run(randomProgram(seed))
			if i == 0 {
				want = got
				continue
			}
			if got.sched != want.sched || got.end != want.end || got.digest != want.digest {
				t.Fatalf("seed %d: %s ran sched=%d end=%v digest=%x, plain sched=%d end=%v digest=%x",
					seed, r.name, got.sched, got.end, got.digest, want.sched, want.end, want.digest)
			}
			if !slices.Equal(got.trace, want.trace) {
				t.Fatalf("seed %d: %s trace differs from plain\n got %v\nwant %v", seed, r.name, got.trace, want.trace)
			}
		}
	}
}

// sameOnEveryDriver runs program on every driver and returns the plain
// run after checking the others match it.
func sameOnEveryDriver(t *testing.T, program func(e *Env)) kernelRun {
	t.Helper()
	want := kernelRunners[0].run(program)
	for _, r := range kernelRunners[1:] {
		got := r.run(program)
		if got.sched != want.sched || got.end != want.end || got.digest != want.digest || !slices.Equal(got.trace, want.trace) {
			t.Fatalf("%s run differs from plain:\n got sched=%d end=%v digest=%x %v\nwant sched=%d end=%v digest=%x %v",
				r.name, got.sched, got.end, got.digest, got.trace, want.sched, want.end, want.digest, want.trace)
		}
	}
	return want
}

func traceEvents(run kernelRun) []string {
	out := make([]string, len(run.trace))
	for i, ev := range run.trace {
		out[i] = fmt.Sprintf("%d %s %s", ev.T, ev.Proc, ev.Event)
	}
	return out
}

func wantTrace(t *testing.T, run kernelRun, want ...string) {
	t.Helper()
	if got := traceEvents(run); !slices.Equal(got, want) {
		t.Fatalf("trace\n got %q\nwant %q", got, want)
	}
}

// TestInlineCallbackMakesResumeDue: a callback that spawns a process or
// hands a value to a parked receiver queues a resume ahead of the wake, so
// the sleeper parks and the resumed processes run first.
func TestInlineCallbackMakesResumeDue(t *testing.T) {
	run := sameOnEveryDriver(t, func(e *Env) {
		ch := NewChan[int](e, 0)
		e.Spawn("receiver", func(p *Proc) {
			v, _ := ch.Recv(p)
			p.Tracef("got %d", v)
		})
		e.Spawn("sleeper", func(p *Proc) {
			e.AfterFunc(2, func() {
				e.Spawn("child", func(c *Proc) { c.Tracef("started") })
				e.Tracef("spawned")
			})
			e.AfterFunc(3, func() { e.Tracef("sent %v", ch.TrySend(7)) })
			e.AfterFunc(4, func() { e.Tracef("late") })
			p.Sleep(10)
			p.Tracef("woke")
		})
	})
	wantTrace(t, run,
		"2  spawned", "2 child started",
		"3  sent true", "3 receiver got 7",
		"4  late", "10 sleeper woke")
}

// TestInlineCallbackAtWakeTime: a callback that an inline callback
// schedules at exactly the wake time takes a later sequence number, so it
// fires after the wake; one scheduled before the wake time fires inline
// too. The wake itself still takes the fast path.
func TestInlineCallbackAtWakeTime(t *testing.T) {
	run := sameOnEveryDriver(t, func(e *Env) {
		e.Spawn("sleeper", func(p *Proc) {
			e.AfterFunc(2, func() {
				e.Tracef("first")
				e.At(10, func() { e.Tracef("at wake time") })
				e.At(6, func() { e.Tracef("chained") })
			})
			p.Sleep(10)
			p.Tracef("woke")
			p.Sleep(1)
			p.Tracef("woke again")
		})
	})
	wantTrace(t, run, "2  first", "6  chained", "10 sleeper woke", "10  at wake time", "11 sleeper woke again")

	e := NewEnv()
	e.Spawn("sleeper", func(p *Proc) {
		e.AfterFunc(2, func() { e.At(10, func() {}) })
		p.Sleep(10)
		if e.Pending() != 1 {
			t.Errorf("%d events pending after the wake, want only the callback: the wake was queued", e.Pending())
		}
	})
	e.Run()
}

// TestInlineStopsAtHorizonAndWindow: a shard window's bound stops the
// inline firing; the loop fires the rest in later windows, and every inline
// callback counts in its window's tally.
func TestInlineStopsAtHorizonAndWindow(t *testing.T) {
	sh := NewSharded(1)
	sh.LimitLookahead(5)
	sh.EnableTrace()
	rec := &recordingWindowObserver{}
	sh.SetWindowObserver(rec)
	e := sh.Domain(0)
	e.Spawn("sleeper", func(p *Proc) {
		e.AfterFunc(3, func() { e.Tracef("cb") })
		e.AfterFunc(7, func() { e.Tracef("cb") })
		p.Sleep(10)
		p.Tracef("woke")
	})
	sh.Run()
	wantTrace(t, kernelRun{trace: sh.TraceLog()}, "3  cb", "7  cb", "10 sleeper woke")
	// [0,5): the start and the callback at 3, inline; [7,12): the callback
	// at 7, then the wake, which was queued because 10 was past the bound.
	want := "round=1 h=0 bound=5 delivered=0 events=[2] flow=[0]\n" +
		"round=2 h=7 bound=12 delivered=0 events=[2] flow=[0]\n"
	if got := rec.log.String(); got != want {
		t.Fatalf("windows\n got %s\nwant %s", got, want)
	}
	if int64(rec.events) != sh.Scheduled() {
		t.Fatalf("windows fired %d events, %d scheduled", rec.events, sh.Scheduled())
	}
}

// callbackPanic is a distinct panic value for TestInlineCallbackPanic.
type callbackPanic struct{ at Time }

// TestInlineCallbackPanic: a panicking callback surfaces from Run with its
// own value, whether the loop fired it or a Sleep did inline.
func TestInlineCallbackPanic(t *testing.T) {
	value := callbackPanic{at: 3}
	for _, r := range kernelRunners {
		got := recoverRun(func() {
			r.run(func(e *Env) {
				e.Spawn("sleeper", func(p *Proc) {
					e.AfterFunc(3, func() { panic(value) })
					p.Sleep(10)
				})
			})
		})
		if got != value {
			t.Errorf("%s: Run panicked with %#v, want %#v", r.name, got, value)
		}
	}
}

// TestSleepInlineAllocs pins the inline path at zero allocations: a
// recycled event per callback and a bound callback allocate nothing.
func TestSleepInlineAllocs(t *testing.T) {
	e := NewEnv()
	fired := 0
	cb := func() { fired++ }
	e.Spawn("sleeper", func(p *Proc) {
		if allocs := testing.AllocsPerRun(100, func() {
			e.AfterFunc(1, cb)
			p.Sleep(2)
		}); allocs != 0 {
			t.Errorf("Sleep past a due callback allocates %v/op, want 0", allocs)
		}
		if e.Pending() != 0 {
			t.Errorf("%d events left queued: a wake was parked", e.Pending())
		}
	})
	e.Run()
	if fired != 101 {
		t.Fatalf("fired %d callbacks, want 101", fired)
	}
}
