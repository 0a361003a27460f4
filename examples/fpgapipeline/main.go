// FPGA pipeline: the paper's §4.1 motivating application — a frontend
// function pulls an image from storage and hands it to an FPGA gzip
// function for compression — plus a pure-FPGA chain showing the DRAM
// data-retention zero-copy optimization (§4.3).
//
//	go run ./examples/fpgapipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workloads"
)

func main() {
	env := sim.NewEnv()
	machine := hw.Build(env, hw.Config{DPUs: 1, FPGAs: 1})

	env.Spawn("operator", func(p *sim.Proc) {
		rt, err := molecule.New(p, machine, workloads.NewRegistry(), molecule.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}

		// Deploy: the frontend runs on CPU/DPU, gzip has an FPGA profile.
		if err := rt.Deploy(p, "image-processing",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
			log.Fatal(err)
		}
		if err := rt.Deploy(p, "gzip-compression",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.FPGA)); err != nil {
			log.Fatal(err)
		}

		// The input image lives in the storage service on the host; the
		// frontend pulls it first (§4.1's motivating pipeline).
		store := storage.New(env, machine, 0)
		dpu := machine.PUsOfKind(hw.DPU)[0].ID
		if err := store.Put(p, 0, storage.Object{Key: "raw-image", Size: 25 << 20}); err != nil {
			log.Fatal(err)
		}
		pullStart := p.Now()
		if _, err := store.Get(p, dpu, "raw-image"); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frontend (DPU) pulled 25MB from storage in %v\n", p.Now().Sub(pullStart))

		// Mixed chain: general-purpose frontend on the host + FPGA
		// compressor, which the host executor runs. The 25MB payload is past
		// the CPU/FPGA crossover, so the FPGA profile wins.
		arg := workloads.Arg{Bytes: 25 << 20}
		fpga := machine.PUsOfKind(hw.FPGA)[0].ID
		res, err := rt.InvokeChain(p, []string{"image-processing", "gzip-compression"},
			molecule.ChainOptions{Placement: []hw.PUID{rt.HostID(), fpga}, Arg: arg})
		if err != nil {
			log.Fatal(err)
		}
		cpuOnly, err := rt.InvokeChain(p, []string{"image-processing", "gzip-compression"},
			molecule.ChainOptions{Arg: arg})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frontend -> gzip(25MB): FPGA pipeline %v vs CPU-only %v (%.1fx)\n",
			res.Total, cpuOnly.Total, float64(cpuOnly.Total)/float64(res.Total))

		// The compression is real: run the function body on an actual
		// repetitive payload.
		gz := rt.Registry.MustGet("gzip-compression")
		out, err := gz.Body(workloads.Arg{Payload: make([]byte, 1<<20)})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("real gzip output: %v\n", out)

		// Pure FPGA chain: five vector stages with and without DRAM data
		// retention. With retention, intermediate results stay in the FPGA's
		// DRAM banks and never cross PCIe.
		if err := rt.Deploy(p, "vecstage", molecule.DefaultProfile(hw.FPGA)); err != nil {
			log.Fatal(err)
		}
		chain := []string{"vecstage", "vecstage", "vecstage", "vecstage", "vecstage"}
		onFPGA := []hw.PUID{fpga, fpga, fpga, fpga, fpga}
		copying, _ := rt.InvokeChain(p, chain, molecule.ChainOptions{Placement: onFPGA, ForceCopy: true})
		zerocopy, _ := rt.InvokeChain(p, chain, molecule.ChainOptions{Placement: onFPGA})
		fmt.Printf("5-stage FPGA chain: copying %v, zero-copy %v (%.2fx)\n",
			copying.Total, zerocopy.Total, float64(copying.Total)/float64(zerocopy.Total))
	})

	env.Run()
}
