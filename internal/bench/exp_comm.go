package bench

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "Serverless DAG communication latency (Alexa skills)",
		Paper: "IPC-based DAG 15-18x better than baseline; nIPC 10-13x",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "FPGA function chain end-to-end latency",
		Paper: "DRAM-retention (shm) chains ~1.95x faster than copying for 5 functions",
		Run:   runFig13,
	})
}

// alexaEdges names the four measured edges of the Alexa skill DAG.
var alexaEdges = []string{"front-interact", "interact-smarthome", "smarthome-door", "smarthome-light"}

// runFig12 measures per-edge latency for the four Alexa edges under four
// placements: CPU→CPU, DPU→DPU, CPU→DPU, DPU→CPU, comparing the baseline
// (network) with Molecule (IPC / nIPC).
func runFig12() []*metrics.Table {
	var tables []*metrics.Table
	chain := workloads.AlexaChain()
	cases := []struct {
		name string
		// edge placement: caller PU kind, callee PU kind
		callerDPU, calleeDPU bool
	}{
		{"CPU to CPU", false, false},
		{"DPU to DPU", true, true},
		{"CPU to DPU", false, true},
		{"DPU to CPU", true, false},
	}
	for _, tc := range cases {
		t := &metrics.Table{
			Title:  fmt.Sprintf("Fig 12 — DAG communication latency, %s", tc.name),
			Header: []string{"edge", "Baseline", "Molecule", "improvement"},
		}
		sandboxed(func(p *sim.Proc) {
			rt := newMolecule(p, hw.Config{DPUs: 1}, molecule.DefaultOptions())
			h := baseline.NewHomo(p.Env(), rt.Machine, rt.Registry)
			dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
			pu := func(isDPU bool) hw.PUID {
				if isDPU {
					return dpu
				}
				return 0
			}
			for _, fn := range chain {
				if err := rt.Deploy(p, fn,
					molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
					panic(err)
				}
			}
			for i, edge := range alexaEdges {
				caller, callee := chain[i], chain[i+1]
				placement := []hw.PUID{pu(tc.callerDPU), pu(tc.calleeDPU)}
				pair := []string{caller, callee}
				// Warm instances, then measure the request edge.
				if _, err := rt.InvokeChain(p, pair, molecule.ChainOptions{Placement: placement}); err != nil {
					panic(err)
				}
				res, err := rt.InvokeChain(p, pair, molecule.ChainOptions{Placement: placement})
				if err != nil {
					panic(err)
				}
				mol := res.EdgeLatency[0]
				fn := rt.Registry.MustGet(callee)
				base := h.EdgeLatencyOneWay(placement[0], placement[1], fn.Lang, fn.ArgBytes)
				t.AddRow(edge, fd(base), fd(mol), fr(float64(base)/float64(mol)))
			}
		})
		tables = append(tables, t)
	}
	return tables
}

// runFig13 sweeps FPGA chains of 1..5 vector-compute functions, comparing
// host-copy data movement with DRAM-retention shared memory.
func runFig13() []*metrics.Table {
	t := &metrics.Table{
		Title:  "Fig 13 — FPGA function chain (end-to-end) latency",
		Note:   "vector computation stages; Copying moves data through host DRAM, Shm uses FPGA DRAM retention",
		Header: []string{"chain length", "Copying", "Shm", "improvement"},
	}
	sandboxed(func(p *sim.Proc) {
		rt := newMolecule(p, hw.Config{FPGAs: 1}, molecule.DefaultOptions())
		if err := rt.Deploy(p, "vecstage", molecule.DefaultProfile(hw.FPGA)); err != nil {
			panic(err)
		}
		fpga := rt.Machine.PUsOfKind(hw.FPGA)[0].ID
		for n := 1; n <= 5; n++ {
			chain := make([]string, n)
			placement := make([]hw.PUID, n)
			for i := range chain {
				chain[i], placement[i] = "vecstage", fpga
			}
			copied, err := rt.InvokeChain(p, chain, molecule.ChainOptions{Placement: placement, ForceCopy: true})
			if err != nil {
				panic(err)
			}
			shm, err := rt.InvokeChain(p, chain, molecule.ChainOptions{Placement: placement})
			if err != nil {
				panic(err)
			}
			t.AddRow(fmt.Sprintf("%d", n), fd(copied.Total), fd(shm.Total),
				fr(float64(copied.Total)/float64(shm.Total)))
		}
	})
	return []*metrics.Table{t}
}
