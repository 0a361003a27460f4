package sim

import (
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke Time
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		woke = p.Now()
	})
	end := env.Run()
	if woke != Time(10*time.Millisecond) {
		t.Errorf("woke at %v, want 10ms", woke)
	}
	if end != woke {
		t.Errorf("Run returned %v, want %v", end, woke)
	}
}

func TestSleepNegativeClampsToZero(t *testing.T) {
	env := NewEnv()
	env.Spawn("p", func(p *Proc) {
		p.Sleep(-5 * time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	env.Run()
}

func TestEventOrderingDeterministic(t *testing.T) {
	env := NewEnv()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		env.Spawn(name, func(p *Proc) {
			p.Sleep(time.Millisecond) // all wake at the same instant
			order = append(order, name)
		})
	}
	env.Run()
	want := "abc"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Errorf("same-time events fired in order %q, want %q (FIFO by seq)", got, want)
	}
}

func TestSpawnAfter(t *testing.T) {
	env := NewEnv()
	var started Time
	env.SpawnAfter(3*time.Second, "late", func(p *Proc) { started = p.Now() })
	env.Run()
	if started != Time(3*time.Second) {
		t.Errorf("started at %v, want 3s", started)
	}
}

func TestAtAndAfterFunc(t *testing.T) {
	env := NewEnv()
	var times []Time
	env.At(Time(5*time.Millisecond), func() { times = append(times, env.Now()) })
	env.AfterFunc(2*time.Millisecond, func() { times = append(times, env.Now()) })
	env.Run()
	if len(times) != 2 || times[0] != Time(2*time.Millisecond) || times[1] != Time(5*time.Millisecond) {
		t.Errorf("callback times = %v, want [2ms 5ms]", times)
	}
}

func TestUnbufferedChanRendezvous(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	var got int
	var recvAt, sendDone Time
	env.Spawn("recv", func(p *Proc) {
		v, ok := ch.Recv(p)
		if !ok {
			t.Error("recv reported closed")
		}
		got = v
		recvAt = p.Now()
	})
	env.Spawn("send", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		ch.Send(p, 42)
		sendDone = p.Now()
	})
	env.Run()
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
	if recvAt != Time(7*time.Millisecond) {
		t.Errorf("receive completed at %v, want 7ms", recvAt)
	}
	if sendDone != Time(7*time.Millisecond) {
		t.Errorf("send completed at %v, want 7ms", sendDone)
	}
}

func TestBufferedChanDoesNotBlockUntilFull(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 2)
	var sendTimes []Time
	env.Spawn("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			ch.Send(p, i)
			sendTimes = append(sendTimes, p.Now())
		}
	})
	env.Spawn("recv", func(p *Proc) {
		p.Sleep(time.Second)
		for i := 0; i < 3; i++ {
			v, _ := ch.Recv(p)
			if v != i {
				t.Errorf("recv %d, want %d (FIFO order)", v, i)
			}
		}
	})
	env.Run()
	if sendTimes[0] != 0 || sendTimes[1] != 0 {
		t.Errorf("buffered sends blocked: times %v", sendTimes)
	}
	if sendTimes[2] != Time(time.Second) {
		t.Errorf("third send completed at %v, want 1s (after first recv)", sendTimes[2])
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	env := NewEnv()
	ch := NewChan[string](env, 0)
	var ok bool = true
	env.Spawn("recv", func(p *Proc) { _, ok = ch.Recv(p) })
	env.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Close()
	})
	env.Run()
	if ok {
		t.Error("receiver on closed channel got ok=true")
	}
	if env.LiveProcs() != 0 {
		t.Errorf("live procs = %d, want 0", env.LiveProcs())
	}
}

func TestChanDrainAfterClose(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 4)
	env.Spawn("p", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		ch.Close()
		v, ok := ch.Recv(p)
		if !ok || v != 1 {
			t.Errorf("drain got (%d,%v), want (1,true)", v, ok)
		}
		v, ok = ch.Recv(p)
		if !ok || v != 2 {
			t.Errorf("drain got (%d,%v), want (2,true)", v, ok)
		}
		_, ok = ch.Recv(p)
		if ok {
			t.Error("drained channel still delivering ok=true")
		}
	})
	env.Run()
}

func TestTrySendTryRecv(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 1)
	env.Spawn("p", func(p *Proc) {
		if _, _, got := ch.TryRecv(); got {
			t.Error("TryRecv on empty chan reported a value")
		}
		if !ch.TrySend(9) {
			t.Error("TrySend into free buffer failed")
		}
		if ch.TrySend(10) {
			t.Error("TrySend into full buffer succeeded")
		}
		v, ok, got := ch.TryRecv()
		if !got || !ok || v != 9 {
			t.Errorf("TryRecv = (%d,%v,%v), want (9,true,true)", v, ok, got)
		}
	})
	env.Run()
}

func TestSendToWaitingReceiverDoesNotBlockSender(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	var senderDone Time = -1
	env.Spawn("recv", func(p *Proc) { ch.Recv(p) })
	env.Spawn("send", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Send(p, 1)
		senderDone = p.Now()
	})
	env.Run()
	if senderDone != Time(time.Millisecond) {
		t.Errorf("sender finished at %v, want 1ms", senderDone)
	}
}

func TestResourceFIFO(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var order []string
	hold := func(name string, startDelay, holdFor Duration) {
		env.SpawnAfter(startDelay, name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, name)
			p.Sleep(holdFor)
			r.Release()
		})
	}
	hold("first", 0, 10*time.Millisecond)
	hold("second", time.Millisecond, time.Millisecond)
	hold("third", 2*time.Millisecond, time.Millisecond)
	env.Run()
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("acquisition order %v, want %v", order, want)
		}
	}
	if r.InUse() != 0 {
		t.Errorf("resource in use = %d after all released", r.InUse())
	}
}

func TestResourceCapacity(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 2)
	var third Time
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn("u", func(p *Proc) {
			r.Acquire(p)
			if i == 2 {
				third = p.Now()
			}
			p.Sleep(time.Second)
			r.Release()
		})
	}
	env.Run()
	if third != Time(time.Second) {
		t.Errorf("third acquirer ran at %v, want 1s (capacity 2)", third)
	}
}

func TestTryAcquire(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire on free resource failed")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire on exhausted resource succeeded")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

// TestContendedResourceAllocs pins a steady-state contended Acquire/Release
// at zero allocations: two processes trade one unit, so every Acquire parks
// and every Release dequeues, and the wait queue reuses its backing array.
// A reused WaitGroup's Wait/Done cycle is held to the same bound.
func TestContendedResourceAllocs(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	wg := NewWaitGroup(env)
	var contended, waited float64
	done := false
	cycle := func(p *Proc) {
		r.Acquire(p)
		p.Sleep(time.Microsecond)
		r.Release()
	}
	env.Spawn("a", func(p *Proc) {
		cycle(p) // size the wait queue
		contended = testing.AllocsPerRun(200, func() { cycle(p) })
		wg.Add(1)
		wg.Wait(p) // size the waiter list
		waited = testing.AllocsPerRun(200, func() {
			wg.Add(1)
			wg.Wait(p)
		})
		done = true
	})
	env.Spawn("b", func(p *Proc) {
		for !done {
			if wg.Count() > 0 {
				wg.Done()
			}
			cycle(p)
		}
	})
	env.Run()
	if contended != 0 {
		t.Errorf("contended Acquire/Release allocs = %v, want 0", contended)
	}
	if waited != 0 {
		t.Errorf("reused WaitGroup Wait allocs = %v, want 0", waited)
	}
}

func TestWaitGroup(t *testing.T) {
	env := NewEnv()
	wg := NewWaitGroup(env)
	var doneAt Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		env.Spawn("worker", func(p *Proc) {
			p.Sleep(Duration(i) * time.Millisecond)
			wg.Done()
		})
	}
	env.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	env.Run()
	if doneAt != Time(3*time.Millisecond) {
		t.Errorf("waiter released at %v, want 3ms", doneAt)
	}
}

func TestWaitGroupZeroCountNoBlock(t *testing.T) {
	env := NewEnv()
	wg := NewWaitGroup(env)
	env.Spawn("w", func(p *Proc) {
		wg.Wait(p)
		if p.Now() != 0 {
			t.Error("Wait on zero-count group blocked")
		}
	})
	env.Run()
}

func TestLiveProcsCountsBlocked(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	env.Spawn("blocked", func(p *Proc) { ch.Recv(p) })
	env.Run()
	if env.LiveProcs() != 1 {
		t.Errorf("live procs = %d, want 1 (deadlock detector)", env.LiveProcs())
	}
}

func TestYieldRunsAfterQueuedEvents(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	env.Spawn("b", func(p *Proc) { order = append(order, "b") })
	env.Run()
	if len(order) != 3 || order[0] != "a1" || order[1] != "b" || order[2] != "a2" {
		t.Errorf("order = %v, want [a1 b a2]", order)
	}
}

func TestNestedSpawnFromProcess(t *testing.T) {
	env := NewEnv()
	var childAt Time
	env.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Env().Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childAt = c.Now()
		})
		p.Sleep(5 * time.Millisecond)
	})
	env.Run()
	if childAt != Time(2*time.Millisecond) {
		t.Errorf("child finished at %v, want 2ms", childAt)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(time.Second)
	if tm.After(time.Second) != Time(2*time.Second) {
		t.Error("After broken")
	}
	if tm.Sub(Time(250*time.Millisecond)) != 750*time.Millisecond {
		t.Error("Sub broken")
	}
	if tm.Seconds() != 1.0 {
		t.Error("Seconds broken")
	}
	if tm.String() != "1s" {
		t.Errorf("String = %q, want 1s", tm.String())
	}
}

func TestManyProcessesStress(t *testing.T) {
	env := NewEnv()
	const n = 2000
	ch := NewChan[int](env, 0)
	sum := 0
	env.Spawn("collector", func(p *Proc) {
		for i := 0; i < n; i++ {
			v, _ := ch.Recv(p)
			sum += v
		}
	})
	for i := 1; i <= n; i++ {
		i := i
		env.Spawn("producer", func(p *Proc) {
			p.Sleep(Duration(i % 17))
			ch.Send(p, i)
		})
	}
	env.Run()
	if want := n * (n + 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	if env.LiveProcs() != 0 {
		t.Errorf("live procs = %d, want 0", env.LiveProcs())
	}
}

func TestBlockedProcsDiagnostics(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	env.Spawn("stuck-consumer", func(p *Proc) { ch.Recv(p) })
	env.Spawn("finisher", func(p *Proc) {})
	env.Run()
	blocked := env.BlockedProcs()
	if len(blocked) != 1 || blocked[0] != "stuck-consumer" {
		t.Errorf("blocked = %v, want [stuck-consumer]", blocked)
	}
}
