// Package simbench holds the kernel microbenchmark bodies shared by the
// internal/sim and internal/mem benchmark tests and the benchmark harness's
// ladder (benchmark/ladder.go), which runs them via testing.Benchmark and
// reports the median ns/op and allocs/op over repeated runs.
//
// Each body is a closed simulation: it builds a fresh Env, runs b.N
// operations of one kernel primitive, and drains the environment, so the
// numbers isolate kernel overhead from workload logic.
package simbench

import (
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Sleep measures the cost of one Sleep/resume cycle for a lone process —
// the kernel's hottest path: every simulated delay in every component goes
// through it.
func Sleep(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	env.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	env.Run()
}

// SleepContended measures Sleep/resume with two processes interleaving, so
// every wake-up takes the full park/resume handoff through the scheduler
// rather than any lone-sleeper fast path.
func SleepContended(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	for _, name := range []string{"a", "b"} {
		env.Spawn(name, func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	env.Run()
}

// Spawn measures process creation + exit, including the kernel's bookkeeping
// of spawned processes (long soak runs spawn millions).
func Spawn(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	env.Spawn("spawner", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Env().Spawn("child", func(c *sim.Proc) {})
			p.Yield() // let the child run and exit before the next spawn
		}
	})
	b.ResetTimer()
	env.Run()
}

// ChanPingPong measures one rendezvous Send/Recv pair between two processes,
// the backbone of every simulated IPC path (XPU-Shim calls, executor queues).
func ChanPingPong(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	ch := sim.NewChan[int](env, 0)
	env.Spawn("pinger", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ch.Send(p, i)
		}
	})
	env.Spawn("ponger", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ch.Recv(p)
		}
	})
	b.ResetTimer()
	env.Run()
}

// CrossShardSend measures one cross-domain message on a two-domain sharded
// group: outbox append, the barrier's deterministic merge, and delivery into
// the destination heap, amortized over the window the conservative driver
// opens per round. A single worker drives both domains so the number
// isolates kernel cost from OS-thread handoff noise; real-core dispatch is
// covered by the sharded soak scaling curve (BENCH_sim.json).
func CrossShardSend(b *testing.B) {
	b.ReportAllocs()
	sh := sim.NewSharded(2)
	sh.LimitLookahead(time.Microsecond)
	var received int
	sh.Domain(0).Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			//lint:owned bench counter: received is written only by domain 1's deliveries and read after Run returns
			sh.Send(p.Env(), 1, time.Microsecond, func() { received++ })
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	sh.Run(1)
	if received != b.N {
		b.Fatalf("lost cross-shard messages: %d of %d delivered", received, b.N)
	}
}

// AddressSpaceForkFanout measures forking many children off one warm
// template address space — the zygote-forest cold-start pattern, where one
// specialized template feeds every instance of its package cohort. Per op:
// fork fanout children, touch a small private working set in each (the COW
// break), read the PSS the kernel must keep consistent, then release all
// children. Fork itself must stay O(extents) with ~2 allocs; the fanout
// shape catches refcount churn that a single-child benchmark hides.
func AddressSpaceForkFanout(b *testing.B) {
	const (
		templatePages = 3072 // ~12MB template: base runtime + warm imports
		fanout        = 64
		privatePages  = 16
	)
	b.ReportAllocs()
	tmpl := mem.NewAddressSpace()
	tmpl.Map(templatePages)
	children := make([]*mem.AddressSpace, fanout)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range children {
			//lint:released fanout child: every child is released in the drain loop at the end of this iteration; b.Fatalf exits abort the process
			c := tmpl.Fork()
			c.Write(0, privatePages)
			children[j] = c
		}
		if pss := tmpl.PSSPages(); pss <= 0 {
			b.Fatalf("template PSS = %v", pss)
		}
		for j, c := range children {
			c.Release()
			children[j] = nil
		}
	}
	b.StopTimer()
	if got := tmpl.PSSPages(); got != templatePages {
		b.Fatalf("template PSS after release = %v, want %d (leaked child refs)", got, templatePages)
	}
}
