package cluster_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The boss keeps a function on its warm home machine, serves an
// FPGA-profiled function on an FPGA, and runs a chain on one machine.
func Example() {
	b, err := cluster.NewBoss(cluster.BossConfig{
		Machines: 3,
		HW:       hw.Config{DPUs: 2, FPGAs: 1},
		Opts:     molecule.DefaultOptions(),
	})
	if err != nil {
		panic(err)
	}
	b.Register("matmul")
	b.Register("mscale", molecule.DefaultProfile(hw.FPGA))
	chain := workloads.MapReduceChain()
	for _, fn := range chain {
		b.Register(fn)
	}
	served := func() []int {
		var out []int
		for _, n := range b.Nodes() {
			out = append(out, n.Served())
		}
		return out
	}
	b.Env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			res, m, _ := b.InvokeDetailed(p, "matmul", molecule.InvokeOptions{PU: -1})
			fmt.Printf("matmul -> machine %d, cold=%v\n", m, res.Cold)
		}
		res, m, _ := b.InvokeDetailed(p, "mscale", molecule.InvokeOptions{PU: -1})
		fmt.Printf("mscale -> machine %d on %v\n", m, res.Kind)
		for i := 0; i < 2; i++ {
			cres, _ := b.InvokeChain(p, chain, molecule.ChainOptions{})
			fmt.Printf("MapReduce chain: %d cold starts, served per machine %v\n", cres.ColdStarts, served())
		}
	})
	b.Run(1)
	// Output:
	// matmul -> machine 1, cold=true
	// matmul -> machine 1, cold=false
	// mscale -> machine 0 on FPGA
	// MapReduce chain: 3 cold starts, served per machine [2 2 0]
	// MapReduce chain: 0 cold starts, served per machine [3 2 0]
}
