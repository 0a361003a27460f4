package bench

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "abl-autoscale",
		Title: "Ablation: resident-pool autoscaling under a burst",
		Paper: "serverless auto-scalability (§1): queueing-driven scale-out vs a fixed pool",
		Run:   runAblAutoscale,
	})
	register(Experiment{
		ID:    "case-gnn",
		Title: "Representative case: GNN training step on a GPU function (§2.4)",
		Paper: "Dorylus-style GNN work 'can be improved by using accelerators like GPU with the help of Molecule'",
		Run:   runCaseGNN,
	})
	register(Experiment{
		ID:    "abl-pricing",
		Title: "Ablation: cost vs latency across PU profiles (§4.1 pricing model)",
		Paper: "DPU lowest price, FPGA highest; users pick profiles by price and ability",
		Run:   runAblPricing,
	})
}

// runAblAutoscale fires a 16-request burst of a 19.5ms function at a
// 1-resident pool with and without autoscaling.
func runAblAutoscale() []*metrics.Table {
	t := &metrics.Table{
		Title:  "16-request burst of pyaes (19.5ms handler)",
		Header: []string{"configuration", "peak residents", "p50", "worst", "scale-outs"},
	}
	runBurst := func(maxResidents int) (lat metrics.Recorder, peak, outs int) {
		sandboxed(func(p *sim.Proc) {
			rt := newMolecule(p, hw.Config{}, molecule.DefaultOptions())
			if err := rt.Deploy(p, "pyaes"); err != nil {
				panic(err)
			}
			opts := molecule.DefaultAutoScalerOptions()
			opts.TargetQueue = 2 * time.Millisecond
			opts.Max = maxResidents
			a, err := rt.NewAutoScaler(p, "pyaes", 0, opts)
			if err != nil {
				panic(err)
			}
			wg := sim.NewWaitGroup(rt.Env)
			for i := 0; i < 16; i++ {
				wg.Add(1)
				rt.Env.Spawn("req", func(cp *sim.Proc) {
					defer wg.Done()
					l, err := a.Serve(cp, workloads.Arg{})
					if err != nil {
						panic(err)
					}
					lat.Add(l)
				})
			}
			wg.Wait(p)
			_, peak, outs = a.Stats()
			a.Close(p)
		})
		return lat, peak, outs
	}
	for _, tc := range []struct {
		label string
		max   int
	}{{"fixed pool (max=1)", 1}, {"autoscaled (max=16)", 16}} {
		lat, peak, outs := runBurst(tc.max)
		t.AddRow(tc.label, fmt.Sprintf("%d", peak),
			fd(lat.Percentile(50)), fd(lat.Max()), fmt.Sprintf("%d", outs))
	}
	return []*metrics.Table{t}
}

// runCaseGNN adds the §2.4 GNN aggregation kernel and compares the
// CPU-only execution (Dorylus today) with the GPU profile Molecule enables.
func runCaseGNN() []*metrics.Table {
	t := &metrics.Table{
		Title:  "GNN neighborhood-aggregation step, 64K vertices",
		Header: []string{"profile", "step latency", "speedup"},
	}
	gnn := &workloads.Function{
		Name: "gnn-aggregate", Lang: lang.Python,
		ExecCPU:   48 * time.Millisecond, // sparse matmul on CPU
		DepImport: 220 * time.Millisecond,
		ArgBytes:  16 << 20, ResultBytes: 4 << 20,
		GPUKernel: 2500 * time.Microsecond,
	}
	sandboxed(func(p *sim.Proc) {
		rt := newMolecule(p, hw.Config{GPUs: 1}, molecule.DefaultOptions())
		rt.Registry.Add(gnn)
		if err := rt.Deploy(p, "gnn-aggregate",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.GPU)); err != nil {
			panic(err)
		}
		gpu := rt.Machine.PUsOfKind(hw.GPU)[0].ID
		cpu, err := measureWarm(p, rt, "gnn-aggregate", molecule.InvokeOptions{PU: 0})
		if err != nil {
			panic(err)
		}
		g, err := measureWarm(p, rt, "gnn-aggregate", molecule.InvokeOptions{PU: gpu})
		if err != nil {
			panic(err)
		}
		t.AddRow("CPU (Dorylus today)", fd(cpu.Handler), "1.00x")
		t.AddRow("GPU via runG", fd(g.Handler), fr(float64(cpu.Handler)/float64(g.Handler)))
	})
	return []*metrics.Table{t}
}

// runAblPricing invokes the same function on each PU profile and reports
// the latency/charge trade-off.
func runAblPricing() []*metrics.Table {
	t := &metrics.Table{
		Title:  "mscale on each profile: what the user pays vs what they wait",
		Note:   "rates per §4.1 ordering: DPU cheapest, CPU middle, GPU/FPGA premium",
		Header: []string{"profile", "rate/ms", "warm latency", "billed", "charge"},
	}
	sandboxed(func(p *sim.Proc) {
		rt := newMolecule(p, hw.Config{DPUs: 1, FPGAs: 1, GPUs: 1}, molecule.DefaultOptions())
		if err := rt.Deploy(p, "mscale",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU),
			molecule.DefaultProfile(hw.FPGA), molecule.DefaultProfile(hw.GPU)); err != nil {
			panic(err)
		}
		for _, pu := range rt.Machine.PUs() {
			res, err := measureWarm(p, rt, "mscale", molecule.InvokeOptions{PU: pu.ID})
			if err != nil {
				panic(err)
			}
			e, _ := rt.Billing().Last()
			pr := molecule.DefaultProfile(pu.Kind)
			t.AddRow(pu.Kind.String(), fmt.Sprintf("%.1f", pr.PricePerMs),
				fd(res.Total), fmt.Sprintf("%dms", e.BilledMs), fmt.Sprintf("%.2f", e.Charge))
		}
	})
	return []*metrics.Table{t}
}

func init() {
	register(Experiment{
		ID:    "abl-throughput",
		Title: "Ablation: goodput and tail latency vs offered load",
		Paper: "the machine saturates gracefully; DPUs extend the service region",
		Run:   runAblThroughput,
	})
}

// runAblThroughput sweeps the offered rate against a capacity-capped
// machine and reports goodput and tail latency.
func runAblThroughput() []*metrics.Table {
	t := &metrics.Table{
		Title:  "Offered load sweep (pyaes, host capped at 8 concurrent instances, 5s)",
		Header: []string{"offered req/s", "served", "rejected", "p50", "p99"},
	}
	for _, rate := range []float64{25, 100, 400, 800} {
		var stats *loadgen.Stats
		sandboxed(func(p *sim.Proc) {
			opts := molecule.DefaultOptions()
			rt := newMolecule(p, hw.Config{}, opts)
			rt.SetCapacity(0, 8)
			if err := rt.Deploy(p, "pyaes"); err != nil {
				panic(err)
			}
			var err error
			stats, err = loadgen.Run(p, rt, loadgen.Config{
				Seed: 11, Functions: []string{"pyaes"},
				RatePerSec: rate, Duration: 5 * time.Second,
			})
			if err != nil {
				panic(err)
			}
		})
		t.AddRow(fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%d", stats.Requests-stats.Errors),
			fmt.Sprintf("%d", stats.Errors),
			fd(stats.Latency.Percentile(50)), fd(stats.Latency.Percentile(99)))
	}
	return []*metrics.Table{t}
}

func init() {
	register(Experiment{
		ID:    "case-util",
		Title: "Representative case: accelerator utilization via fine-grained sharing (§2.3)",
		Paper: "serverless multiplexing lifts accelerator utilization vs a dedicated tenant",
		Run:   runCaseUtil,
	})
}

// runCaseUtil compares accelerator work served over a fixed window when the
// device is dedicated to one tenant vs shared by four serverless functions
// through the vectorized image: the same fabric does several tenants' work.
func runCaseUtil() []*metrics.Table {
	const window = 5 * time.Second
	t := &metrics.Table{
		Title:  "FPGA work served over a 5s window (20 req/s per function)",
		Header: []string{"scenario", "requests", "device busy", "window utilization", "vs dedicated"},
	}
	scenario := func(fns []string) (reqs int, busy time.Duration) {
		sandboxed(func(p *sim.Proc) {
			rt := newMolecule(p, hw.Config{FPGAs: 1}, molecule.DefaultOptions())
			for _, fn := range fns {
				if err := rt.Deploy(p, fn, molecule.DefaultProfile(hw.FPGA)); err != nil {
					panic(err)
				}
			}
			fpga := rt.Machine.PUsOfKind(hw.FPGA)[0].ID
			stats, err := loadgen.Run(p, rt, loadgen.Config{
				Seed: 5, Functions: fns,
				RatePerSec: 20 * float64(len(fns)),
				Duration:   window,
			})
			if err != nil {
				panic(err)
			}
			reqs = stats.Requests
			for _, n := range rt.Snapshot() {
				if n.PU == fpga {
					busy = n.Busy
				}
			}
		})
		return
	}
	oneReqs, oneBusy := scenario([]string{"vmult"})
	t.AddRow("dedicated tenant (1 function)", fmt.Sprintf("%d", oneReqs),
		fd(oneBusy), fmt.Sprintf("%.1f%%", 100*float64(oneBusy)/float64(window)), "1.00x")
	manyReqs, manyBusy := scenario([]string{"vmult", "matrix-comput", "anti-moneyl", "madd"})
	t.AddRow("serverless sharing (4 tenants)", fmt.Sprintf("%d", manyReqs),
		fd(manyBusy), fmt.Sprintf("%.1f%%", 100*float64(manyBusy)/float64(window)),
		fr(float64(manyBusy)/float64(oneBusy)))
	return []*metrics.Table{t}
}

func init() {
	register(Experiment{
		ID:    "abl-slo",
		Title: "Ablation: deadline/price-driven profile selection (§4.1)",
		Paper: "multi-setting functions: the platform picks the cheapest profile that meets the deadline",
		Run:   runAblSLO,
	})
}

func runAblSLO() []*metrics.Table {
	t := &metrics.Table{
		Title:  "gzip(50MB) deployed on CPU and FPGA: deadline and objective decide",
		Header: []string{"deadline", "objective", "chosen", "estimate", "measured", "charge"},
	}
	sandboxed(func(p *sim.Proc) {
		rt := newMolecule(p, hw.Config{FPGAs: 1}, molecule.DefaultOptions())
		if err := rt.Deploy(p, "gzip-compression",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.FPGA)); err != nil {
			panic(err)
		}
		arg := workloads.Arg{Bytes: 50 << 20}
		// Warm the CPU path so its estimate is steady-state.
		rt.Invoke(p, "gzip-compression", molecule.InvokeOptions{PU: 0, Arg: arg})
		cases := []struct {
			deadline time.Duration
			obj      molecule.SLOObjective
			objName  string
		}{
			{0, molecule.MinimizeRate, "min rate"},
			{0, molecule.MinimizeCharge, "min charge"},
			{10 * time.Second, molecule.MinimizeRate, "min rate"},
			{time.Second, molecule.MinimizeRate, "min rate"},
			{time.Second, molecule.MinimizeCharge, "min charge"},
		}
		for _, c := range cases {
			before := rt.Billing().Total()
			res, kind, est, err := rt.InvokeWithSLO(p, "gzip-compression",
				molecule.SLOOptions{Deadline: c.deadline, Objective: c.obj, Arg: arg})
			if err != nil {
				panic(err)
			}
			label := "none"
			if c.deadline > 0 {
				label = c.deadline.String()
			}
			t.AddRow(label, c.objName, kind.String(), fd(est), fd(res.Total),
				fmt.Sprintf("%.0f", rt.Billing().Total()-before))
		}
	})
	return []*metrics.Table{t}
}
