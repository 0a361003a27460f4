package sim

// Tests for processes on runtime coroutines: faults in a body reach the
// caller of Run, on both Env.Run and Sharded.Run, pooled coroutines and exited
// processes retain nothing they should not, and steady-state Spawn and
// contended Sleep stay allocation-free apart from the Proc itself.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// faultingGroup returns a two-domain group whose "ok" processes sleep
// through several windows and whose domain-d process named "bad<d>" calls
// fault after 5µs, for each d in bad.
func faultingGroup(fault func(), bad ...int) *Sharded {
	sh := NewSharded(2)
	sh.LimitLookahead(time.Microsecond)
	for d := 0; d < 2; d++ {
		sh.Domain(d).Spawn(fmt.Sprintf("ok%d", d), func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	for _, d := range bad {
		sh.Domain(d).Spawn(fmt.Sprintf("bad%d", d), func(p *Proc) {
			p.Sleep(5 * time.Microsecond)
			fault()
		})
	}
	return sh
}

// recoverRun runs f and returns the value it panicked with, if any.
func recoverRun(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

func TestProcPanicReachesRunCaller(t *testing.T) {
	boom := func() { panic("boom") }

	env := NewEnv()
	env.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Microsecond)
		boom()
	})
	got := fmt.Sprint(recoverRun(func() { env.Run() }))
	if !strings.HasPrefix(got, `sim: process "bad" panicked: boom`) {
		t.Fatalf("Env.Run panic = %q, want the process name and value", got)
	}
	if !strings.Contains(got, "sim.TestProcPanicReachesRunCaller") {
		t.Errorf("panic value lacks the body's stack:\n%s", got)
	}

	// Both domains fault in the same window; the driver runs domain 0's
	// window first, so domain 0's fault is the one raised.
	sh := faultingGroup(boom, 1, 0)
	got = fmt.Sprint(recoverRun(func() { sh.Run() }))
	if !strings.HasPrefix(got, `sim: process "bad0" panicked: boom`) {
		t.Errorf("Sharded.Run panic = %q, want bad0's", got)
	}
	if n := len(sh.Domain(0).idle) + len(sh.Domain(1).idle); n != 0 {
		t.Errorf("%d idle coroutines left after the panic", n)
	}
}

// TestProcGoexitReachesRunCaller pins that runtime.Goexit in a body — what
// t.Fatal calls — ends the goroutine that called Run instead of letting Run
// return as if the process had exited normally.
func TestProcGoexitReachesRunCaller(t *testing.T) {
	runs := []func(){
		func() {
			env := NewEnv()
			env.Spawn("bad", func(p *Proc) { runtime.Goexit() })
			env.Run()
		},
		func() { faultingGroup(runtime.Goexit, 1).Run() },
	}
	for i, run := range runs {
		returned := make(chan bool)
		go func() {
			ok := false
			defer func() { returned <- ok }()
			run()
			ok = true
		}()
		if <-returned {
			t.Errorf("run %d (Env.Run, Sharded.Run): Run returned normally after a body called runtime.Goexit", i)
		}
	}
}

// payload is a value whose collection a test observes through a finalizer.
// It is large enough to stay out of the tiny allocator, whose shared blocks
// may never run finalizers.
type payload struct{ buf [64]byte }

func newPayload(name string, freed chan<- string) *payload {
	v := new(payload)
	runtime.SetFinalizer(v, func(*payload) { freed <- name })
	return v
}

// awaitCollected runs the GC until every name in want has been finalized.
func awaitCollected(t *testing.T, freed <-chan string, want ...string) {
	t.Helper()
	left := map[string]bool{}
	for _, w := range want {
		left[w] = true
	}
	for i := 0; i < 100 && len(left) > 0; i++ {
		runtime.GC()
		select {
		case name := <-freed:
			delete(left, name)
		case <-time.After(10 * time.Millisecond):
		}
	}
	for name := range left {
		t.Errorf("%s was never collected", name)
	}
}

// spawnReceiver spawns a process whose body captures one payload and
// receives another from ch; neither stays referenced by the test.
func spawnReceiver(env *Env, ch *Chan[*payload], freed chan<- string) *Proc {
	captured := newPayload("captured", freed)
	return env.Spawn("rx", func(p *Proc) {
		v, _ := ch.Recv(p)
		runtime.KeepAlive(captured)
		runtime.KeepAlive(v)
	})
}

// TestExitedProcRetainsNothing checks, while the exited process is still
// referenced and its coroutine sits idle in the pool, that neither its
// body's captures nor the last value it received are reachable.
func TestExitedProcRetainsNothing(t *testing.T) {
	freed := make(chan string, 4)
	env := NewEnv()
	ch := NewChan[*payload](env, 0)
	rx := spawnReceiver(env, ch, freed)
	env.Spawn("tx", func(p *Proc) {
		ch.Send(p, newPayload("received", freed))
		p.Sleep(time.Microsecond) // let rx exit
		if !rx.exited || len(env.idle) == 0 {
			t.Errorf("rx exited=%v with %d idle coroutines; want an exited rx and a pooled coroutine", rx.exited, len(env.idle))
		}
		awaitCollected(t, freed, "captured", "received")
	})
	env.Run()
	runtime.KeepAlive(rx)
}

// pinStep is a stepped wait that queues on an empty channel and is never
// resumed. It holds v, so a process left parked in it keeps v reachable
// from its Env, and from nothing else: the process never takes a
// coroutine.
type pinStep struct {
	ch *Chan[int]
	v  *payload
}

func (s pinStep) Step(p *Proc, _ any) bool {
	var x int
	_, got := s.ch.RecvStep(p, &x)
	return got
}

// pin leaves v reachable only from env once env's run is over.
func pin(env *Env, v *payload) {
	env.SpawnWaiting("pinned", pinStep{NewChan[int](env, 0), v}, func(*Proc) {})
}

// churn runs an Env that reuses pooled coroutines and ends with a payload
// named name pinned to it.
func churn(t *testing.T, freed chan<- string, name string) {
	env := NewEnv()
	pin(env, newPayload(name, freed))
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.Env().Spawn("child", func(*Proc) {})
			p.Sleep(0)
		}
		if len(env.idle) == 0 {
			t.Error("no coroutine was pooled")
		}
	})
	env.Run()
	if len(env.idle) != 0 {
		t.Errorf("%s: %d idle coroutines left after the run", name, len(env.idle))
	}
}

// churnSharded is churn on both domains of a two-domain group.
func churnSharded(t *testing.T, freed chan<- string) {
	sh := NewSharded(2)
	sh.LimitLookahead(time.Microsecond)
	for d := 0; d < 2; d++ {
		env := sh.Domain(d)
		env.Spawn("driver", func(p *Proc) {
			for i := 0; i < 8; i++ {
				p.Env().Spawn("child", func(*Proc) {})
				p.Sleep(time.Microsecond)
			}
		})
	}
	pin(sh.Domain(1), newPayload("Sharded.Run", freed))
	sh.Run()
}

// TestFinishedEnvIsCollected checks that an Env whose processes ran on
// pooled coroutines is collected once its caller drops it: Run and
// Sharded.Run stop the idle coroutines, whose goroutines would otherwise
// keep the Env reachable forever.
func TestFinishedEnvIsCollected(t *testing.T) {
	freed := make(chan string, 2)
	churn(t, freed, "Run")
	churnSharded(t, freed)
	awaitCollected(t, freed, "Run", "Sharded.Run")
}

// TestIdleCorosCapped: a burst of processes that are all live at once
// leaves at most maxIdleCoros coroutines on the idle list when they exit,
// and the coroutines beyond the cap end with their bodies instead of
// waiting for a Spawn that may never come.
func TestIdleCorosCapped(t *testing.T) {
	env := NewEnv()
	base := runtime.NumGoroutine()
	n := 2*maxIdleCoros + 5
	for i := 0; i < n; i++ {
		env.Spawn("burst", func(p *Proc) { p.Sleep(time.Microsecond) })
	}
	env.At(Time(time.Microsecond/2), func() {
		if g := runtime.NumGoroutine() - base; g < n {
			t.Errorf("%d goroutines with %d processes live, want at least %d", g, n, n)
		}
	})
	env.At(Time(2*time.Microsecond), func() {
		if len(env.idle) != maxIdleCoros {
			t.Errorf("%d idle coroutines after the burst, want the cap %d", len(env.idle), maxIdleCoros)
		}
		if g := runtime.NumGoroutine() - base; g > maxIdleCoros+2 {
			t.Errorf("%d goroutines after the burst, want at most the cap %d (+2)", g, maxIdleCoros)
		}
	})
	env.Run()
}

// TestSteadyStateAllocs pins the allocation cost of the kernel's two
// commonest operations: a Spawn whose body runs on a pooled coroutine costs
// the Proc alone, and a contended Sleep costs nothing.
func TestSteadyStateAllocs(t *testing.T) {
	env := NewEnv()
	var spawn, sleep float64
	done := false
	env.Spawn("a", func(p *Proc) {
		spawn = testing.AllocsPerRun(200, func() {
			p.Env().Spawn("child", func(*Proc) {})
			p.Sleep(0)
		})
		sleep = testing.AllocsPerRun(200, func() { p.Sleep(time.Microsecond) })
		done = true
	})
	env.Spawn("b", func(p *Proc) {
		for !done {
			p.Sleep(time.Microsecond)
		}
	})
	env.Run()
	if spawn > 1 {
		t.Errorf("Spawn allocs = %v, want <= 1", spawn)
	}
	if sleep != 0 {
		t.Errorf("contended Sleep allocs = %v, want 0", sleep)
	}
}
