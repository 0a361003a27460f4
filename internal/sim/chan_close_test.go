package sim

import "testing"

// A sender parked on a full buffer must be woken by Close instead of
// hanging forever — the race behind the XPU-FIFO close bug.
func TestCloseWakesBlockedSender(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 1)
	var sent, woke bool
	env.Spawn("writer", func(p *Proc) {
		if !ch.SendOrClosed(p, 1) {
			t.Error("first send should fit the buffer")
		}
		sent = ch.SendOrClosed(p, 2) // parks: buffer full, no receiver
		woke = true
	})
	env.Spawn("closer", func(p *Proc) {
		p.Sleep(10)
		ch.Close()
	})
	env.Run()
	if !woke {
		t.Fatal("blocked sender never woke after Close")
	}
	if sent {
		t.Error("send woken by Close reported delivery")
	}
	if got := env.BlockedProcs(); len(got) != 0 {
		t.Errorf("blocked procs after Close: %v", got)
	}
}

func TestCloseWakesBlockedSendPanics(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	var panicked bool
	env.Spawn("writer", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
			}
		}()
		ch.Send(p, 1) // rendezvous: parks with no receiver
	})
	env.Spawn("closer", func(p *Proc) {
		p.Sleep(10)
		ch.Close()
	})
	env.Run()
	if !panicked {
		t.Error("Send woken by Close should panic like a native closed-channel send")
	}
}

func TestSendOrClosedUpfront(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 4)
	env.Spawn("writer", func(p *Proc) {
		ch.Close()
		if ch.SendOrClosed(p, 1) {
			t.Error("SendOrClosed on an already-closed channel reported delivery")
		}
		if ch.Len() != 0 {
			t.Error("value leaked into a closed channel's buffer")
		}
	})
	env.Run()
}

// A sender woken by a receiver (the normal path) still reports delivery.
func TestSendOrClosedDeliveredAfterPark(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	env.Spawn("writer", func(p *Proc) {
		if !ch.SendOrClosed(p, 7) {
			t.Error("rendezvous send should report delivery")
		}
	})
	env.Spawn("reader", func(p *Proc) {
		p.Sleep(5)
		if v, ok := ch.Recv(p); !ok || v != 7 {
			t.Errorf("Recv = (%d, %v), want (7, true)", v, ok)
		}
	})
	env.Run()
}

// TestParkedRecvFIFOAndAllocs: parked receivers wake in the order they
// parked, and once the queue and the slot pool have grown, a parked
// receive allocates nothing: the value travels in a pooled slot, not boxed.
func TestParkedRecvFIFOAndAllocs(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		env.SpawnAfter(Duration(i), "r", func(p *Proc) {
			v, _ := ch.Recv(p)
			order = append(order, i*10+v)
		})
	}
	var allocs float64
	done := false
	env.SpawnAfter(10, "s", func(p *Proc) {
		for v := 0; v < 3; v++ {
			ch.TrySend(v)
		}
		p.Sleep(0)
		allocs = testing.AllocsPerRun(200, func() {
			ch.Recv(p) // parks until the sender below hands a value over
		})
		done = true
	})
	env.SpawnAfter(10, "s2", func(p *Proc) {
		p.Sleep(0)
		for !done {
			p.Sleep(1)
			ch.TrySend(1)
		}
	})
	env.Run()
	if want := []int{0, 11, 22}; len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("receivers woke as %v, want %v (parked order)", order, want)
	}
	if allocs != 0 {
		t.Errorf("parked Recv allocs = %v, want 0", allocs)
	}
}

// TestResetReopensEmpty: a closed channel with buffered values comes back
// open, empty and at its new capacity; resetting one with a parked process
// panics.
func TestResetReopensEmpty(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 4)
	ch.TrySend(1)
	ch.Close()
	ch.Reset(1)
	if ch.Closed() || ch.Len() != 0 || ch.Cap() != 1 {
		t.Fatalf("after Reset: closed %v, len %d, cap %d; want open, 0, 1", ch.Closed(), ch.Len(), ch.Cap())
	}
	if !ch.TrySend(2) || ch.TrySend(3) {
		t.Error("reset channel does not buffer exactly one value")
	}
	var panicked bool
	env.Spawn("parked", func(p *Proc) { ch.Send(p, 4) })
	env.Spawn("reset", func(p *Proc) {
		defer func() { panicked = recover() != nil }()
		ch.Reset(1)
	})
	env.Run()
	if !panicked {
		t.Error("Reset with a parked sender did not panic")
	}
}

// pooled counts the hand-off slots in c's free list.
func pooled[T any](c *Chan[T]) int {
	n := 0
	for r := c.free; r != nil; r = r.next {
		n++
	}
	return n
}

// TestBlockedSendAllocs: a rendezvous Send that parks until a receiver
// takes its value allocates nothing once the sender queue has grown — the
// waiter is queued by value.
func TestBlockedSendAllocs(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	var allocs float64
	done := false
	got := 0
	env.Spawn("s", func(p *Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			ch.Send(p, 1) // parks: no receiver is waiting
		})
		done = true
	})
	env.Spawn("r", func(p *Proc) {
		for !done {
			p.Sleep(1)
			if v, ok, ready := ch.TryRecv(); ready && ok {
				got += v
			}
		}
	})
	env.Run()
	if got != 201 {
		t.Errorf("received %d values, want 201 (one warm-up send and 200 measured)", got)
	}
	if allocs != 0 {
		t.Errorf("blocked Send allocs = %v, want 0", allocs)
	}
}

// TestCloseWakesAllParked: Close wakes every parked receiver, in park
// order, with ok=false, and every parked sender with the closed signal; the
// handoff slots those receivers used go back to the pool, so a receive on
// the reset channel still gets its own value.
func TestCloseWakesAllParked(t *testing.T) {
	env := NewEnv()
	rc := NewChan[int](env, 0)
	sc := NewChan[int](env, 0)
	var woke []int
	for i := 0; i < 3; i++ {
		i := i
		env.SpawnAfter(Duration(i), "r", func(p *Proc) {
			if v, ok := rc.Recv(p); ok || v != 0 {
				t.Errorf("receiver %d: Recv = (%d, %v) after Close, want (0, false)", i, v, ok)
			}
			woke = append(woke, i)
		})
		env.SpawnAfter(Duration(i), "s", func(p *Proc) {
			if sc.SendOrClosed(p, i) {
				t.Errorf("sender %d: SendOrClosed reported delivery after Close", i)
			}
		})
	}
	env.SpawnAfter(10, "closer", func(p *Proc) {
		rc.Close()
		sc.Close()
	})
	env.Run()
	if len(woke) != 3 || woke[0] != 0 || woke[1] != 1 || woke[2] != 2 {
		t.Errorf("receivers woke as %v, want [0 1 2] (park order)", woke)
	}
	if n := pooled(rc); n != 3 || len(sc.sendq) != 0 {
		t.Errorf("after Close: %d pooled slots, %d queued senders; want 3, 0", n, len(sc.sendq))
	}
	rc.Reset(0)
	env.Spawn("r2", func(p *Proc) {
		if v, ok := rc.Recv(p); !ok || v != 7 {
			t.Errorf("Recv after Reset = (%d, %v), want (7, true)", v, ok)
		}
	})
	env.SpawnAfter(1, "s2", func(p *Proc) { rc.Send(p, 7) })
	env.Run()
	if got := env.BlockedProcs(); len(got) != 0 {
		t.Errorf("blocked procs: %v", got)
	}
}

// TestExitedReceiverSkipped: no value is handed to a queued receiver that
// has exited. A process that queues through RecvStep and returns without
// waiting stays queued; TrySend drops it and finds no live receiver instead
// of losing its value, and the next receiver gets every value sent after it
// parks, through one reused hand-off slot.
func TestExitedReceiverSkipped(t *testing.T) {
	env := NewEnv()
	ch := NewChan[int](env, 0)
	env.Spawn("quitter", func(p *Proc) {
		var v int
		if _, got := ch.RecvStep(p, &v); got {
			t.Error("RecvStep took a value from an empty channel")
		}
	})
	env.SpawnAfter(1, "probe", func(p *Proc) {
		if ch.TrySend(1) {
			t.Error("TrySend handed its value to an exited receiver")
		}
	})
	var got []int
	env.SpawnAfter(2, "next", func(p *Proc) {
		for i := 0; i < 2; i++ {
			v, _ := ch.Recv(p)
			got = append(got, v)
		}
	})
	env.SpawnAfter(3, "sender", func(p *Proc) {
		ch.TrySend(2)
		p.Sleep(1)
		ch.TrySend(3)
	})
	env.Run()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("next receiver got %v, want [2 3]", got)
	}
	if n := pooled(ch); n != 1 {
		t.Errorf("pooled slots = %d, want 1 (the next receiver's, reused)", n)
	}
	if got := env.BlockedProcs(); len(got) != 0 {
		t.Errorf("blocked procs: %v", got)
	}
}
