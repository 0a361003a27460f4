package bench

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "fig14a",
		Title: "FunctionBench, cold boot on CPU",
		Paper: "Molecule 1.01-11.12x less end-to-end latency than baseline",
		Run:   func() []*metrics.Table { return runFunctionBench("fig14a", false, false, true) },
	})
	register(Experiment{
		ID:    "fig14b",
		Title: "FunctionBench, warm boot",
		Paper: "baseline and Molecule nearly equal; cfork's COW faults cost a little",
		Run:   func() []*metrics.Table { return runFunctionBench("fig14b", false, false, false) },
	})
	register(Experiment{
		ID:    "fig14c",
		Title: "FunctionBench, cold boot on BF-1 DPU",
		Paper: "BF-1 4-7x slower than CPU; Molecule still wins every case",
		Run:   func() []*metrics.Table { return runFunctionBench("fig14c", true, false, true) },
	})
	register(Experiment{
		ID:    "fig14d",
		Title: "FunctionBench, cold boot on BF-2 DPU",
		Paper: "BF-2 3-4x better than BF-1, close to CPU performance",
		Run:   func() []*metrics.Table { return runFunctionBench("fig14d", true, true, true) },
	})
	register(Experiment{
		ID:    "fig14e",
		Title: "Chained applications (Alexa, MapReduce)",
		Paper: "Molecule 2.04-2.47x (Alexa) and 3.70-4.47x (MapReduce) less end-to-end latency",
		Run:   runFig14e,
	})
	register(Experiment{
		ID:    "fig14f",
		Title: "GZip FPGA functions",
		Paper: "FPGA wins for files >25MB, 4.8-8.3x better latency",
		Run:   runFig14f,
	})
	register(Experiment{
		ID:    "fig14g",
		Title: "Anti-MoneyL FPGA function",
		Paper: "FPGA 4.7-34.6x better across 6K-6M transaction entries",
		Run:   runFig14g,
	})
	register(Experiment{
		ID:    "fig14h",
		Title: "Matrix computation application",
		Paper: "FPGA 2.8x lower latency (CPU 2.6ms)",
		Run:   runFig14h,
	})
}

// runFunctionBench measures the eight FunctionBench applications end to end
// on the baseline (Molecule-homo) and Molecule, cold or warm, on the CPU or
// a DPU.
func runFunctionBench(id string, onDPU, bf2, cold bool) []*metrics.Table {
	where := "CPU"
	if onDPU {
		where = "BF-1 DPU"
		if bf2 {
			where = "BF-2 DPU"
		}
	}
	mode := "warm boot"
	if cold {
		mode = "cold boot"
	}
	t := &metrics.Table{
		Title:  fmt.Sprintf("Fig 14 (%s) — FunctionBench end-to-end latency, %s on %s", id, mode, where),
		Header: []string{"application", "Baseline", "Molecule", "improvement"},
	}
	for _, fname := range workloads.FunctionBenchNames() {
		var base, mol float64
		sandboxed(func(p *sim.Proc) {
			cfg := hw.Config{}
			target := hw.PUID(0)
			if onDPU {
				cfg = hw.Config{DPUs: 1, BF2: bf2}
			}
			rt := newMolecule(p, cfg, molecule.DefaultOptions())
			if onDPU {
				target = rt.Machine.PUsOfKind(hw.DPU)[0].ID
			}
			h := baseline.NewHomo(p.Env(), rt.Machine, rt.Registry)
			if err := rt.Deploy(p, fname,
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
				panic(err)
			}
			rt.ContainerRuntimeOn(target).EnsureTemplate(p, lang.Python)

			if cold {
				hres, err := h.Invoke(p, fname, target, workloads.Arg{}, true)
				if err != nil {
					panic(err)
				}
				base = hres.Total.Seconds() * 1000
				mres, err := rt.Invoke(p, fname, molecule.InvokeOptions{PU: target, ForceCold: true})
				if err != nil {
					panic(err)
				}
				mol = mres.Total.Seconds() * 1000
			} else {
				// Warm boot: instances created and cached beforehand; the
				// measured request is the first served by the cached
				// instance (so Molecule's COW faults show up, §6.6).
				h.Invoke(p, fname, target, workloads.Arg{}, true)
				hres, err := h.Invoke(p, fname, target, workloads.Arg{}, false)
				if err != nil {
					panic(err)
				}
				base = hres.Total.Seconds() * 1000
				held, err := rt.AcquireHeld(p, fname, target)
				if err != nil {
					panic(err)
				}
				rt.ReleaseHeld(p, held)
				mres, err := rt.Invoke(p, fname, molecule.InvokeOptions{PU: target})
				if err != nil {
					panic(err)
				}
				mol = mres.Total.Seconds() * 1000
			}
		})
		t.AddRow(fname, fmt.Sprintf("%.1fms", base), fmt.Sprintf("%.1fms", mol), fr(base/mol))
	}
	return []*metrics.Table{t}
}

// runFig14e measures the two chained applications under CPU-only, DPU-only,
// and CrossPU placements, warmed (pre-booted instances, like the paper).
func runFig14e() []*metrics.Table {
	var tables []*metrics.Table
	apps := []struct {
		name  string
		chain []string
	}{
		{"Alexa", workloads.AlexaChain()},
		{"MapReduce", workloads.MapReduceChain()},
	}
	for _, app := range apps {
		t := &metrics.Table{
			Title:  fmt.Sprintf("Fig 14e — %s end-to-end latency (pre-booted instances)", app.name),
			Header: []string{"placement", "Baseline", "Molecule", "improvement"},
		}
		sandboxed(func(p *sim.Proc) {
			rt := newMolecule(p, hw.Config{DPUs: 1}, molecule.DefaultOptions())
			h := baseline.NewHomo(p.Env(), rt.Machine, rt.Registry)
			dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
			for _, fn := range app.chain {
				if err := rt.Deploy(p, fn,
					molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
					panic(err)
				}
			}
			place := func(kind string) []hw.PUID {
				out := make([]hw.PUID, len(app.chain))
				for i := range out {
					switch kind {
					case "cpu":
						out[i] = 0
					case "dpu":
						out[i] = dpu
					case "cross":
						// Alternate so every inter-function call crosses PUs.
						if i%2 == 0 {
							out[i] = 0
						} else {
							out[i] = dpu
						}
					}
				}
				return out
			}
			for _, tc := range []struct{ label, kind string }{
				{"CPU", "cpu"}, {"DPU", "dpu"}, {"CrossPU", "cross"},
			} {
				pl := place(tc.kind)
				// Warm both systems.
				if _, err := h.InvokeChain(p, app.chain, pl, workloads.Arg{}); err != nil {
					panic(err)
				}
				if _, err := rt.InvokeChain(p, app.chain, molecule.ChainOptions{Placement: pl}); err != nil {
					panic(err)
				}
				bres, err := h.InvokeChain(p, app.chain, pl, workloads.Arg{})
				if err != nil {
					panic(err)
				}
				mres, err := rt.InvokeChain(p, app.chain, molecule.ChainOptions{Placement: pl})
				if err != nil {
					panic(err)
				}
				t.AddRow(tc.label, fd(bres.Total), fd(mres.Total),
					fr(float64(bres.Total)/float64(mres.Total)))
			}
		})
		tables = append(tables, t)
	}
	return tables
}

func runFig14f() []*metrics.Table {
	t := &metrics.Table{
		Title:  "Fig 14f — GZip: CPU vs FPGA across file sizes",
		Note:   "FPGA includes DMA transfers; 112MB corresponds to the Linux source tree",
		Header: []string{"file size", "CPU", "FPGA", "CPU/FPGA"},
	}
	sandboxed(func(p *sim.Proc) {
		rt := newMolecule(p, hw.Config{FPGAs: 1}, molecule.DefaultOptions())
		if err := rt.Deploy(p, "gzip-compression",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.FPGA)); err != nil {
			panic(err)
		}
		fpga := rt.Machine.PUsOfKind(hw.FPGA)[0].ID
		rt.Invoke(p, "gzip-compression", molecule.InvokeOptions{PU: 0}) // warm CPU instance
		for _, size := range []int{1 << 10, 1 << 20, 10 << 20, 25 << 20, 50 << 20, 112 << 20} {
			arg := workloads.Arg{Bytes: size}
			cpu, err := rt.Invoke(p, "gzip-compression", molecule.InvokeOptions{PU: 0, Arg: arg})
			if err != nil {
				panic(err)
			}
			fp, err := rt.Invoke(p, "gzip-compression", molecule.InvokeOptions{PU: fpga, Arg: arg})
			if err != nil {
				panic(err)
			}
			label := fmt.Sprintf("%dKB", size>>10)
			if size >= 1<<20 {
				label = fmt.Sprintf("%dMB", size>>20)
			}
			t.AddRow(label, fd(cpu.Handler), fd(fp.Handler),
				fr(float64(cpu.Handler)/float64(fp.Handler)))
		}
	})
	return []*metrics.Table{t}
}

func runFig14g() []*metrics.Table {
	t := &metrics.Table{
		Title:  "Fig 14g — Anti-MoneyL: CPU vs FPGA across entry counts",
		Header: []string{"entries", "CPU", "FPGA", "CPU/FPGA"},
	}
	sandboxed(func(p *sim.Proc) {
		rt := newMolecule(p, hw.Config{FPGAs: 1}, molecule.DefaultOptions())
		if err := rt.Deploy(p, "anti-moneyl",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.FPGA)); err != nil {
			panic(err)
		}
		fpga := rt.Machine.PUsOfKind(hw.FPGA)[0].ID
		rt.Invoke(p, "anti-moneyl", molecule.InvokeOptions{PU: 0})
		for _, entries := range []int{6_000, 60_000, 600_000, 6_000_000} {
			arg := workloads.Arg{N: entries}
			cpu, err := rt.Invoke(p, "anti-moneyl", molecule.InvokeOptions{PU: 0, Arg: arg})
			if err != nil {
				panic(err)
			}
			fp, err := rt.Invoke(p, "anti-moneyl", molecule.InvokeOptions{PU: fpga, Arg: arg})
			if err != nil {
				panic(err)
			}
			t.AddRow(fmt.Sprintf("%d", entries), fd(cpu.Handler), fd(fp.Handler),
				fr(float64(cpu.Handler)/float64(fp.Handler)))
		}
	})
	return []*metrics.Table{t}
}

func runFig14h() []*metrics.Table {
	t := &metrics.Table{
		Title:  "Fig 14h — Matrix computation application",
		Header: []string{"variant", "latency", "normalized"},
	}
	sandboxed(func(p *sim.Proc) {
		rt := newMolecule(p, hw.Config{FPGAs: 1}, molecule.DefaultOptions())
		if err := rt.Deploy(p, "matrix-comput",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.FPGA)); err != nil {
			panic(err)
		}
		chain := []string{"matrix-comput"}
		rt.InvokeChain(p, chain, molecule.ChainOptions{}) // warm
		cpu, err := rt.InvokeChain(p, chain, molecule.ChainOptions{})
		if err != nil {
			panic(err)
		}
		fp, err := rt.InvokeChain(p, chain, molecule.ChainOptions{Placement: []hw.PUID{rt.Machine.PUsOfKind(hw.FPGA)[0].ID}})
		if err != nil {
			panic(err)
		}
		t.AddRow("CPU", fd(cpu.Total), "1.00")
		t.AddRow("FPGA", fd(fp.Total), fmt.Sprintf("%.2f (%.1fx better)",
			float64(fp.Total)/float64(cpu.Total), float64(cpu.Total)/float64(fp.Total)))
	})
	return []*metrics.Table{t}
}
