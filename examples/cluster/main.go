// Cluster: the platform view — a boss (the paper's global manager, Fig 6)
// routing functions across three worker machines, each with a host CPU, two
// DPUs and an FPGA. Repeat requests stay on a function's warm home machine,
// FPGA work is served on an FPGA, and a chain runs on one computer for
// communication locality.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	b, err := cluster.NewBoss(cluster.BossConfig{
		Machines: 3,
		HW:       hw.Config{DPUs: 2, FPGAs: 1},
		Opts:     molecule.DefaultOptions(),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range b.Nodes() {
		fmt.Printf("machine %d: %d PUs, capacity %d instances\n", n.ID(), len(n.HW.PUs()), n.Capacity())
	}

	// Register functions with their profiles once, platform-wide. Each
	// machine deploys a function on its first request there.
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(b.Register("matmul", molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)))
	must(b.Register("gzip-compression", molecule.DefaultProfile(hw.FPGA)))
	chain := workloads.MapReduceChain()
	for _, fn := range chain {
		must(b.Register(fn, molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)))
	}

	// servedOn reports the machine whose completed-request count moved since
	// the snapshot — where a chain ran.
	snapshot := func() []int {
		var out []int
		for _, n := range b.Nodes() {
			out = append(out, n.Served())
		}
		return out
	}
	servedOn := func(before []int) int {
		for i, n := range b.Nodes() {
			if n.Served() != before[i] {
				return i
			}
		}
		return -1
	}

	b.Env.Spawn("client", func(p *sim.Proc) {
		// Affinity: every matmul lands on its home machine; only the first
		// is a cold start.
		for i := 0; i < 4; i++ {
			res, m, err := b.InvokeDetailed(p, "matmul", molecule.InvokeOptions{PU: -1})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("matmul #%d -> machine %d (%v, cold=%v, total %v)\n", i, m, res.Kind, res.Cold, res.Total)
		}
		res, m, err := b.InvokeDetailed(p, "gzip-compression",
			molecule.InvokeOptions{PU: -1, Arg: workloads.Arg{Bytes: 50 << 20}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("gzip(50MB) -> machine %d on %v, total %v\n", m, res.Kind, res.Total)

		// A chain is placed on one machine and co-located there; the warm
		// re-run reuses its instances.
		for _, label := range []string{"", " (warm)"} {
			before := snapshot()
			cres, err := b.InvokeChain(p, chain, molecule.ChainOptions{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("MapReduce chain%s -> machine %d, e2e %v (%d cold starts)\n",
				label, servedOn(before), cres.Total, cres.ColdStarts)
		}
	})
	b.Run(1)
}
