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
// parked, and once the queue has grown, parking a receiver allocates
// nothing — the one allocation per handoff is the boxed received value.
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
		p.Yield()
		allocs = testing.AllocsPerRun(200, func() {
			ch.Recv(p) // parks until the sender below hands a value over
		})
		done = true
	})
	env.SpawnAfter(10, "s2", func(p *Proc) {
		p.Yield()
		for !done {
			p.Sleep(1)
			ch.TrySend(1)
		}
	})
	env.Run()
	if want := []int{0, 11, 22}; len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("receivers woke as %v, want %v (parked order)", order, want)
	}
	if allocs > 1 {
		t.Errorf("parked Recv allocs = %v, want <= 1", allocs)
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
