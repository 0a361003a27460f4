package sim

// Tests for processes on runtime coroutines: faults in a body reach the
// caller of Run at every worker count, pooled coroutines and exited
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
// fault after 5µs, for each d in bad. Its rounds are far below splitMin, so
// every round goes to the workers (forceSplit): a multi-worker Run then
// meets the fault on a worker goroutine.
func faultingGroup(fault func(), bad ...int) *Sharded {
	sh := NewSharded(2)
	forceSplit(sh)
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

	for _, workers := range []int{1, 2} {
		// Both domains fault in the same window; every worker count must
		// re-raise domain 0's, as the sequential driver meets it first.
		sh := faultingGroup(boom, 1, 0)
		got := fmt.Sprint(recoverRun(func() { sh.Run(workers) }))
		if !strings.HasPrefix(got, `sim: process "bad0" panicked: boom`) {
			t.Errorf("workers=%d: Sharded.Run panic = %q, want bad0's", workers, got)
		}
		if n := len(sh.Domain(0).idle) + len(sh.Domain(1).idle); n != 0 {
			t.Errorf("workers=%d: %d idle coroutines left after the panic", workers, n)
		}
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
		func() { faultingGroup(runtime.Goexit, 1).Run(1) },
		func() { faultingGroup(runtime.Goexit, 1).Run(2) },
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
			t.Errorf("run %d (Env.Run, Sharded.Run at 1 and 2 workers): Run returned normally after a body called runtime.Goexit", i)
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

// churn runs an Env that reuses pooled coroutines and stops with one
// pending callback that references a payload named name.
func churn(t *testing.T, freed chan<- string, name string, run func(*Env)) {
	env := NewEnv()
	keep := newPayload(name, freed)
	env.At(Time(time.Hour), func() { runtime.KeepAlive(keep) })
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.Env().Spawn("child", func(*Proc) {})
			p.Yield()
		}
		if len(env.idle) == 0 {
			t.Error("no coroutine was pooled")
		}
		p.Env().Stop()
	})
	run(env)
	if len(env.idle) != 0 {
		t.Errorf("%s: %d idle coroutines left after the run", name, len(env.idle))
	}
}

// churnSharded is churn on both domains of a group driven by 2 workers.
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
	keep := newPayload("Sharded.Run", freed)
	sh.Domain(1).Spawn("stopper", func(p *Proc) {
		p.Env().At(Time(time.Hour), func() { runtime.KeepAlive(keep) })
		p.Sleep(20 * time.Microsecond)
		p.Env().Stop()
	})
	sh.Run(2)
}

// TestFinishedEnvIsCollected checks that an Env whose processes ran on
// pooled coroutines is collected once its caller drops it: Run, RunUntil
// and Sharded.Run stop the idle coroutines, whose goroutines would
// otherwise keep the Env reachable forever.
func TestFinishedEnvIsCollected(t *testing.T) {
	freed := make(chan string, 3)
	churn(t, freed, "Run", func(e *Env) { e.Run() })
	churn(t, freed, "RunUntil", func(e *Env) { e.RunUntil(Time(time.Minute)) })
	churnSharded(t, freed)
	awaitCollected(t, freed, "Run", "RunUntil", "Sharded.Run")
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
			p.Yield()
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
