package sim

// Tests for the kernel fast path: pooled/recycled events, the dedicated
// resume event kind, the lone-sleeper Sleep shortcut, and spawned-slice
// compaction. These are in-package so they can assert on kernel internals
// (free list, spawned slice) that the public API deliberately hides.

import (
	"fmt"
	"testing"
	"time"
)

// TestPooledEventOrdering stresses event recycling: many interleaved
// sleepers and same-instant callbacks across several Run cycles must still
// fire in exact (time, seq) order.
func TestPooledEventOrdering(t *testing.T) {
	env := NewEnv()
	var got []string
	// Same-instant events: FIFO by seq.
	for i := 0; i < 5; i++ {
		i := i
		env.At(Time(time.Millisecond), func() { got = append(got, fmt.Sprintf("cb%d", i)) })
	}
	// Sleepers waking between and exactly at the callback instant.
	for _, d := range []Duration{500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond} {
		d := d
		env.Spawn(fmt.Sprintf("s%v", d), func(p *Proc) {
			p.Sleep(d)
			got = append(got, fmt.Sprintf("wake%v", d))
		})
	}
	env.Run()
	want := []string{"wake500µs", "cb0", "cb1", "cb2", "cb3", "cb4", "wake1ms", "wake2ms"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("first cycle order = %v, want %v", got, want)
	}

	// Second cycle on the same Env: recycled events must behave identically.
	if len(env.free) == 0 {
		t.Fatal("no events were recycled into the pool")
	}
	got = nil
	for i := 0; i < 3; i++ {
		i := i
		env.AfterFunc(Duration(i)*time.Millisecond, func() { got = append(got, fmt.Sprintf("r%d", i)) })
	}
	env.Run()
	if fmt.Sprint(got) != fmt.Sprint([]string{"r0", "r1", "r2"}) {
		t.Fatalf("recycled-event order = %v", got)
	}
}

// TestSleepFastPathSkipsQueueWhenAlone verifies the lone-sleeper shortcut
// fires (no event queued during the sleep) and that it is disabled whenever
// another event is due first.
func TestSleepFastPathSkipsQueueWhenAlone(t *testing.T) {
	env := NewEnv()
	env.Spawn("lone", func(p *Proc) {
		for i := 0; i < 3; i++ {
			before := len(p.env.events)
			p.Sleep(time.Millisecond)
			if len(p.env.events) != before {
				t.Errorf("lone sleep %d queued an event", i)
			}
		}
	})
	env.Run()
	if env.Now() != Time(3*time.Millisecond) {
		t.Fatalf("clock = %v, want 3ms", env.Now())
	}

	// With a pending earlier callback the same sleep must park normally.
	env2 := NewEnv()
	var order []string
	env2.At(Time(time.Millisecond), func() { order = append(order, "cb") })
	env2.Spawn("s", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		order = append(order, "woke")
	})
	env2.Run()
	if fmt.Sprint(order) != fmt.Sprint([]string{"cb", "woke"}) {
		t.Fatalf("order = %v, want [cb woke]", order)
	}
}

// TestSpawnedCompaction checks that Env.spawned stays bounded by the live
// process count on churn-heavy runs, while BlockedProcs still reports
// exactly the parked processes.
func TestSpawnedCompaction(t *testing.T) {
	env := NewEnv()
	const churn = 10000
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < churn; i++ {
			p.Env().Spawn("child", func(c *Proc) {})
			p.Sleep(0)
		}
	})
	// One deliberately parked-forever process.
	blocker := NewChan[struct{}](env, 0)
	env.Spawn("stuck", func(p *Proc) { blocker.Recv(p) })
	env.Run()

	if len(env.spawned) > 256 {
		t.Fatalf("spawned grew to %d entries after %d exits; compaction failed", len(env.spawned), churn)
	}
	if got := env.BlockedProcs(); len(got) != 1 || got[0] != "stuck" {
		t.Fatalf("BlockedProcs = %v, want [stuck]", got)
	}
}

// TestEventPoolBounded ensures the recycle pool respects its cap.
func TestEventPoolBounded(t *testing.T) {
	env := NewEnv()
	for i := 0; i < 4*maxFreeEvents; i++ {
		env.AfterFunc(Duration(i), func() {})
	}
	env.Run()
	if len(env.free) > maxFreeEvents {
		t.Fatalf("free list grew to %d, cap is %d", len(env.free), maxFreeEvents)
	}
}
