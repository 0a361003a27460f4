package molecule_test

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Deploy a function with CPU and FPGA profiles and invoke it; the FPGA
// profile wins placement because the request was priced for it.
func Example() {
	env := sim.NewEnv()
	machine := hw.Build(env, hw.Config{DPUs: 1, FPGAs: 1})

	env.Spawn("operator", func(p *sim.Proc) {
		rt, err := molecule.New(p, machine, workloads.NewRegistry(), molecule.DefaultOptions())
		if err != nil {
			fmt.Println(err)
			return
		}
		if err := rt.Deploy(p, "mscale",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.FPGA)); err != nil {
			fmt.Println(err)
			return
		}
		res, err := rt.Invoke(p, "mscale", molecule.DefaultInvokeOptions())
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("served on %v, handler latency %v\n", res.Kind, res.Handler)
	})
	env.Run()
	// Output:
	// served on FPGA, handler latency 77.384µs
}

// Chains run over direct-connect FIFOs; placement nil co-locates the whole
// chain on the host (chain affinity).
func ExampleRuntime_InvokeChain() {
	env := sim.NewEnv()
	machine := hw.Build(env, hw.Config{})

	env.Spawn("operator", func(p *sim.Proc) {
		rt, _ := molecule.New(p, machine, workloads.NewRegistry(), molecule.DefaultOptions())
		chain := workloads.MapReduceChain()
		for _, fn := range chain {
			rt.Deploy(p, fn)
		}
		rt.InvokeChain(p, chain, molecule.ChainOptions{}) // boot instances
		res, _ := rt.InvokeChain(p, chain, molecule.ChainOptions{})
		fmt.Printf("3-function chain, %d cold starts, %d measured edges\n",
			res.ColdStarts, len(res.EdgeLatency))
	})
	env.Run()
	// Output:
	// 3-function chain, 0 cold starts, 2 measured edges
}

// DAGs support fan-out: both mappers run concurrently, so the MapReduce DAG
// finishes before the chain that runs the same functions one by one.
func ExampleRuntime_InvokeDAG() {
	env := sim.NewEnv()
	machine := hw.Build(env, hw.Config{})

	env.Spawn("operator", func(p *sim.Proc) {
		rt, _ := molecule.New(p, machine, workloads.NewRegistry(), molecule.DefaultOptions())
		for _, fn := range workloads.MapReduceChain() {
			rt.Deploy(p, fn)
		}
		fan := molecule.MapReduceDAG(2)
		serial := molecule.Chain("mr-splitter", "mr-mapper", "mr-mapper", "mr-reducer")
		rt.InvokeDAG(p, fan, molecule.ChainOptions{}) // boot
		fres, _ := rt.InvokeDAG(p, fan, molecule.ChainOptions{})
		sres, _ := rt.InvokeDAG(p, serial, molecule.ChainOptions{})
		fmt.Printf("fan-out %v, serialized %v\n", fres.Total, sres.Total)
	})
	env.Run()
	// Output:
	// fan-out 5.014ms, serialized 6.484ms
}
