// Density: reproduce the Fig 2a scaling story interactively — how many
// concurrent function instances fit on the machine as DPUs are added, and
// what the pay-as-you-go ledger looks like when the cheap DPU profile
// absorbs overflow load.
//
//	go run ./examples/density
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
	for _, dpus := range []int{0, 1, 2} {
		env := sim.NewEnv()
		machine := hw.Build(env, hw.Config{DPUs: dpus})
		env.Spawn("operator", func(p *sim.Proc) {
			rt, err := molecule.New(p, machine, workloads.NewRegistry(), molecule.DefaultOptions())
			if err != nil {
				log.Fatal(err)
			}
			if err := rt.Deploy(p, "image-processing",
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
				log.Fatal(err)
			}
			placed := 0
			for {
				//lint:released density probe: instances are held until the run ends — the example measures packing capacity, not a request lifecycle
				if _, err := rt.AcquireHeld(p, "image-processing", -1); err != nil {
					break
				}
				placed++
			}
			fmt.Printf("%d DPU(s): %4d concurrent instances (capacity %d)\n",
				dpus, placed, rt.Capacity())
		})
		env.Run()
	}

	// Billing: the same function invoked on the CPU vs the DPU profile.
	env := sim.NewEnv()
	machine := hw.Build(env, hw.Config{DPUs: 1})
	env.Spawn("operator", func(p *sim.Proc) {
		rt, err := molecule.New(p, machine, workloads.NewRegistry(), molecule.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		if err := rt.Deploy(p, "pyaes",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
			log.Fatal(err)
		}
		dpu := machine.PUsOfKind(hw.DPU)[0].ID
		for _, pin := range []hw.PUID{0, dpu} {
			rt.Invoke(p, "pyaes", molecule.InvokeOptions{PU: pin}) // warm up
			res, err := rt.Invoke(p, "pyaes", molecule.InvokeOptions{PU: pin})
			if err != nil {
				log.Fatal(err)
			}
			entry, _ := rt.Billing().Last()
			fmt.Printf("pyaes on %-4v: latency %-10v billed %2dms x rate = %5.2f units\n",
				res.Kind, res.Total, entry.BilledMs, entry.Charge)
		}
		fmt.Println("(the DPU is slower but cheaper per millisecond — the §4.1 pricing model)")
	})
	env.Run()
}
