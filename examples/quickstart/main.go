// Quickstart: build a heterogeneous computer, start Molecule on it, deploy
// a function, and invoke it cold and warm.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	// Everything runs inside a discrete-event simulation: one Env, one
	// machine, and a driver process that acts as the platform operator.
	env := sim.NewEnv()
	machine := hw.Build(env, hw.Config{DPUs: 1, FPGAs: 1})

	env.Spawn("operator", func(p *sim.Proc) {
		rt, err := molecule.New(p, machine, workloads.NewRegistry(), molecule.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}

		fmt.Println("Machine:")
		for _, pu := range machine.PUs() {
			fmt.Printf("  PU %d: %-5v %s\n", pu.ID, pu.Kind, pu.Name)
		}

		// Deploy helloworld with a CPU profile (the default).
		if err := rt.Deploy(p, "helloworld"); err != nil {
			log.Fatal(err)
		}

		// First invocation cold-starts an instance via container fork
		// (cfork) from the Python template.
		cold, err := rt.Invoke(p, "helloworld", molecule.InvokeOptions{PU: -1, RunBody: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncold start: total=%v (startup=%v exec=%v) on %v\n",
			cold.Total, cold.Startup, cold.Exec, cold.Kind)
		fmt.Printf("function output: %v\n", cold.Output)

		// The instance stays warm in the keep-alive cache.
		warm, err := rt.Invoke(p, "helloworld", molecule.InvokeOptions{PU: -1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("warm start: total=%v (%.1fx faster)\n",
			warm.Total, float64(cold.Total)/float64(warm.Total))

		fmt.Printf("\nbilled: %.2f units across %d invocations (1ms granularity)\n",
			rt.Billing().Total(), rt.Billing().Count())
	})

	env.Run()
	fmt.Printf("\nsimulated time elapsed: %v\n", env.Now())
}
