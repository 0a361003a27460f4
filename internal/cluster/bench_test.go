package cluster

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// benchBoss runs body on a client process of a one-machine Boss with fns
// registered on the default CPU profile, after one untimed warm-up call.
func benchBoss(b *testing.B, fns []string, call func(p *sim.Proc, boss *Boss) error) {
	boss := newTestBoss(b, 1, hw.Config{}, 0, fns...)
	boss.Env.Spawn("bench", func(p *sim.Proc) {
		if err := call(p, boss); err != nil {
			b.Fatal(err) // cold starts outside the timed region
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := call(p, boss); err != nil {
				b.Fatal(err)
			}
		}
	})
	boss.Run(1)
}

// BenchmarkBossInvokeWarm measures a warm single-function request through
// the whole cluster path: both client ingress hops, routing, the request and
// reply interconnect messages, the machine's admission loop and the
// runtime's warm invoke.
func BenchmarkBossInvokeWarm(b *testing.B) {
	opts := molecule.DefaultInvokeOptions()
	benchBoss(b, []string{"helloworld"}, func(p *sim.Proc, boss *Boss) error {
		_, err := boss.Invoke(p, "helloworld", opts)
		return err
	})
}

// BenchmarkBossInvokeChain measures a warm MapReduce chain placed whole on
// the one machine: the same cluster path plus the runtime's chain placement
// and FIFO wiring.
func BenchmarkBossInvokeChain(b *testing.B) {
	chain := workloads.MapReduceChain()
	benchBoss(b, chain, func(p *sim.Proc, boss *Boss) error {
		_, err := boss.InvokeChain(p, chain, molecule.ChainOptions{})
		return err
	})
}
