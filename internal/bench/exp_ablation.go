package bench

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/loadgen"
	"repro/internal/localos"
	"repro/internal/metrics"
	"repro/internal/molecule"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/xpu"
)

// The ablations below are not paper figures; they isolate the design
// choices DESIGN.md §5 calls out so each optimization's contribution is
// visible on its own.

func init() {
	register(Experiment{
		ID:    "abl-transport",
		Title: "Ablation: XPUcall transport per PU class",
		Paper: "Fig 7 design space: Base (2 IPC round trips) / MPSC (1) / Poll (0)",
		Run:   runAblTransport,
	})
	register(Experiment{
		ID:    "abl-placement",
		Title: "Ablation: chain placement policies",
		Paper: "§5 profile selection: chain affinity is the default for a reason",
		Run:   runAblPlacement,
	})
	register(Experiment{
		ID:    "abl-keepalive",
		Title: "Ablation: keep-alive cache sizing under Zipf load",
		Paper: "§4.2/§5 keep-alive policies (FaasCache-style greedy-dual)",
		Run:   runAblKeepalive,
	})
	register(Experiment{
		ID:    "abl-sync",
		Title: "Ablation: lazy vs eager state synchronization",
		Paper: "§5 inter-PU synchronization strategies",
		Run:   runAblSync,
	})
	register(Experiment{
		ID:    "abl-shimthreads",
		Title: "Ablation: multi-threaded XPUcall handling",
		Paper: "§5: per-thread MPSC queues for XPUcall-intensive scenarios",
		Run:   runAblShimThreads,
	})
	register(Experiment{
		ID:    "abl-erase",
		Title: "Ablation: FPGA erase policy under image churn",
		Paper: "§3.5: erasing is unnecessary; the next create replaces the image",
		Run:   runAblErase,
	})
}

func runAblTransport() []*metrics.Table {
	t := &metrics.Table{
		Title:  "XPUcall overhead by transport and PU",
		Note:   "user<->shim cost per call, before any interconnect transfer",
		Header: []string{"transport", "on CPU", "on BF-1 DPU", "DPU/CPU"},
	}
	for _, mode := range []xpu.TransportMode{xpu.TransportBase, xpu.TransportMPSC, xpu.TransportPoll} {
		cpu := mode.CallOverhead(hw.CPU)
		dpu := mode.CallOverhead(hw.DPU)
		t.AddRow(mode.String(), fd(cpu), fd(dpu), fr(float64(dpu)/float64(cpu)))
	}
	return []*metrics.Table{t}
}

func runAblPlacement() []*metrics.Table {
	t := &metrics.Table{
		Title:  "Alexa chain under each placement policy (warm)",
		Header: []string{"policy", "placement", "e2e latency", "billed units"},
	}
	sandboxed(func(p *sim.Proc) {
		rt := newMolecule(p, hw.Config{DPUs: 1}, molecule.DefaultOptions())
		chain := workloads.AlexaChain()
		for _, fn := range chain {
			if err := rt.Deploy(p, fn,
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
				panic(err)
			}
		}
		for _, policy := range []molecule.PlacementPolicy{
			molecule.PlaceChainAffinity, molecule.PlaceFastest,
			molecule.PlaceCheapest, molecule.PlaceScatter,
		} {
			placement, err := rt.PlaceChain(chain, policy)
			if err != nil {
				panic(err)
			}
			// Warm, then measure latency and the billing delta.
			if _, err := rt.InvokeChain(p, chain, molecule.ChainOptions{Placement: placement}); err != nil {
				panic(err)
			}
			before := rt.Billing().Total()
			res, err := rt.InvokeChain(p, chain, molecule.ChainOptions{Placement: placement})
			if err != nil {
				panic(err)
			}
			cost := rt.Billing().Total() - before
			t.AddRow(policy.String(), fmt.Sprintf("%v", placement), fd(res.Total),
				fmt.Sprintf("%.1f", cost))
		}
	})
	return []*metrics.Table{t}
}

func runAblKeepalive() []*metrics.Table {
	t := &metrics.Table{
		Title:  "Cold-start rate vs keep-alive cache size (Zipf 1.2, 50 req/s, 10s)",
		Header: []string{"warm cache per PU", "cold-start rate", "p50 latency", "p99 latency"},
	}
	for _, capacity := range []int{1, 2, 4, 8, 16, 32} {
		var stats *loadgen.Stats
		sandboxed(func(p *sim.Proc) {
			opts := molecule.DefaultOptions()
			opts.KeepWarmPerPU = capacity
			rt := newMolecule(p, hw.Config{DPUs: 1}, opts)
			cfg := loadgen.Config{
				Seed:       7,
				Functions:  []string{"matmul", "pyaes", "chameleon", "image-resize", "dd"},
				ZipfS:      1.2,
				RatePerSec: 50,
				Duration:   10 * time.Second,
			}
			for _, fn := range cfg.Functions {
				if err := rt.Deploy(p, fn,
					molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
					panic(err)
				}
			}
			var err error
			stats, err = loadgen.Run(p, rt, cfg)
			if err != nil {
				panic(err)
			}
		})
		t.AddRow(fmt.Sprintf("%d", capacity),
			fmt.Sprintf("%.1f%%", stats.ColdRate()*100),
			fd(stats.Latency.Percentile(50)), fd(stats.Latency.Percentile(99)))
	}
	return []*metrics.Table{t}
}

func runAblSync() []*metrics.Table {
	t := &metrics.Table{
		Title:  "State synchronization: lazy vs eager deletes (64 FIFO create/close cycles)",
		Header: []string{"strategy", "broadcasts", "lazy flushes", "total sync time"},
	}
	for _, eager := range []bool{false, true} {
		var stats xpu.SyncStats
		var elapsed time.Duration
		sandboxed(func(p *sim.Proc) {
			env := p.Env()
			m := hw.Build(env, hw.Config{DPUs: 2})
			shim := xpu.NewShim(env, m)
			shim.EagerDeletes = eager
			cpuOS := localos.New(env, m.PU(0))
			node := shim.AddNode(m.PU(0), cpuOS)
			shim.AddNode(m.PU(1), localos.New(env, m.PU(1)))
			shim.AddNode(m.PU(2), localos.New(env, m.PU(2)))
			x := node.Register(cpuOS.NewDetachedProcess("app"))
			start := p.Now()
			for i := 0; i < 64; i++ {
				fd, err := node.FIFOInit(p, x, fmt.Sprintf("churn-%d", i), 1)
				if err != nil {
					panic(err)
				}
				if err := fd.Close(p); err != nil {
					panic(err)
				}
			}
			elapsed = p.Now().Sub(start)
			stats = shim.Stats()
		})
		name := "lazy (batched)"
		if eager {
			name = "eager (immediate)"
		}
		t.AddRow(name, fmt.Sprintf("%d", stats.ImmediateSyncs),
			fmt.Sprintf("%d", stats.LazyFlushes), fd(elapsed))
	}
	return []*metrics.Table{t}
}

func runAblShimThreads() []*metrics.Table {
	t := &metrics.Table{
		Title:  "XPUcall-intensive makespan vs shim handler threads (64 concurrent callers)",
		Header: []string{"handler threads", "makespan", "speedup"},
	}
	var base time.Duration
	for _, threads := range []int{1, 2, 4, 8} {
		var makespan time.Duration
		sandboxed(func(p *sim.Proc) {
			env := p.Env()
			m := hw.Build(env, hw.Config{DPUs: 1})
			shim := xpu.NewShim(env, m)
			dpuOS := localos.New(env, m.PU(1))
			node := shim.AddNode(m.PU(1), dpuOS)
			node.SetHandlerThreads(threads)
			x := node.Register(dpuOS.NewDetachedProcess("app"))
			wg := sim.NewWaitGroup(env)
			start := p.Now()
			for i := 0; i < 64; i++ {
				i := i
				wg.Add(1)
				env.Spawn("caller", func(cp *sim.Proc) {
					defer wg.Done()
					fd, err := node.FIFOInit(cp, x, fmt.Sprintf("t%d-%d", threads, i), 1)
					if err != nil {
						panic(err)
					}
					fd.Close(cp)
				})
			}
			wg.Wait(p)
			makespan = p.Now().Sub(start)
		})
		if threads == 1 {
			base = makespan
		}
		t.AddRow(fmt.Sprintf("%d", threads), fd(makespan), fr(float64(base)/float64(makespan)))
	}
	return []*metrics.Table{t}
}

func runAblErase() []*metrics.Table {
	t := &metrics.Table{
		Title:  "FPGA image churn: erase-always vs no-erase (8 image replacements)",
		Header: []string{"policy", "makespan", "erases performed"},
	}
	for _, policy := range []sandbox.ErasePolicy{sandbox.EraseAlways, sandbox.NoErase} {
		var makespan time.Duration
		var erases int
		sandboxed(func(p *sim.Proc) {
			m := hw.Build(p.Env(), hw.Config{FPGAs: 1})
			rf, err := sandbox.NewRunF(m, m.PUsOfKind(hw.FPGA)[0], m.PU(0))
			if err != nil {
				panic(err)
			}
			rf.Policy = policy
			start := p.Now()
			for i := 0; i < 8; i++ {
				if err := rf.Create(p, []sandbox.Spec{{ID: fmt.Sprintf("s%d", i), FuncID: "k"}}); err != nil {
					panic(err)
				}
			}
			makespan = p.Now().Sub(start)
			_, erases = rf.Device().ProgramCounts()
		})
		name := "erase-always"
		if policy == sandbox.NoErase {
			name = "no-erase"
		}
		t.AddRow(name, fd(makespan), fmt.Sprintf("%d", erases))
	}
	return []*metrics.Table{t}
}

func init() {
	register(Experiment{
		ID:    "abl-startupmode",
		Title: "Ablation: cold-start mechanism (plain / snapshot / cfork)",
		Paper: "Fig 15a design space: snapshot restores in ~45ms; cfork reaches <10ms",
		Run:   runAblStartupMode,
	})
}

func runAblStartupMode() []*metrics.Table {
	t := &metrics.Table{
		Title:  "Cold-start latency by mechanism (Python image-processing, steady state)",
		Note:   "steady state: templates/snapshots already prepared; first-start cost shown separately",
		Header: []string{"mechanism", "first cold start", "steady cold start", "vs plain"},
	}
	type mode struct {
		name string
		opts molecule.Options
	}
	modes := []mode{
		{"plain boot", molecule.Options{Startup: molecule.StartupPlain, KeepWarmPerPU: 64}},
		{"snapshot restore", molecule.Options{Startup: molecule.StartupSnapshot, KeepWarmPerPU: 64}},
		{"cfork", molecule.DefaultOptions()},
	}
	var plainSteady time.Duration
	for _, md := range modes {
		var first, steady time.Duration
		sandboxed(func(p *sim.Proc) {
			rt := newMolecule(p, hw.Config{}, md.opts)
			if err := rt.Deploy(p, "image-processing"); err != nil {
				panic(err)
			}
			r1, err := rt.Invoke(p, "image-processing", molecule.InvokeOptions{PU: -1, ForceCold: true})
			if err != nil {
				panic(err)
			}
			first = r1.Startup
			r2, err := rt.Invoke(p, "image-processing", molecule.InvokeOptions{PU: -1, ForceCold: true})
			if err != nil {
				panic(err)
			}
			steady = r2.Startup
		})
		if md.name == "plain boot" {
			plainSteady = steady
		}
		t.AddRow(md.name, fd(first), fd(steady), fr(float64(plainSteady)/float64(steady)))
	}
	return []*metrics.Table{t}
}

func init() {
	register(Experiment{
		ID:    "abl-vertical",
		Title: "Ablation: vertical scaling under saturating load (Fig 1/2a story)",
		Paper: "DPUs absorb overflow concurrency: fewer rejected requests as devices are added",
		Run:   runAblVertical,
	})
}

// runAblVertical offers more concurrent work than the (scaled-down) host
// can hold and shows DPUs turning rejections into served requests.
func runAblVertical() []*metrics.Table {
	t := &metrics.Table{
		Title:  "Saturating load (60 req/s of a 500ms function, host capped at 24 instances)",
		Header: []string{"machine", "served", "rejected", "p50 latency", "p99 latency"},
	}
	slow := &workloads.Function{
		Name: "slow-analytics", Lang: lang.Python,
		ExecCPU: 500 * time.Millisecond, DepImport: 50 * time.Millisecond,
		ArgBytes: 1 << 10, ResultBytes: 1 << 10,
	}
	for _, dpus := range []int{0, 1, 2} {
		var stats *loadgen.Stats
		sandboxed(func(p *sim.Proc) {
			opts := molecule.DefaultOptions()
			opts.KeepWarmPerPU = 64
			rt := newMolecule(p, hw.Config{DPUs: dpus}, opts)
			rt.Registry.Add(slow)
			rt.SetCapacity(0, 24)
			for _, pu := range rt.Machine.PUsOfKind(hw.DPU) {
				rt.SetCapacity(pu.ID, 12)
			}
			if err := rt.Deploy(p, "slow-analytics",
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
				panic(err)
			}
			var err error
			stats, err = loadgen.Run(p, rt, loadgen.Config{
				Seed: 3, Functions: []string{"slow-analytics"},
				RatePerSec: 60, Duration: 10 * time.Second,
			})
			if err != nil {
				panic(err)
			}
		})
		label := "CPU"
		if dpus > 0 {
			label = fmt.Sprintf("CPU + %d DPU", dpus)
		}
		t.AddRow(label,
			fmt.Sprintf("%d", stats.Requests-stats.Errors),
			fmt.Sprintf("%d", stats.Errors),
			fd(stats.Latency.Percentile(50)), fd(stats.Latency.Percentile(99)))
	}
	return []*metrics.Table{t}
}

func init() {
	register(Experiment{
		ID:    "abl-contention",
		Title: "Ablation: PCIe link contention under concurrent bulk transfers",
		Paper: "shared-medium DMA: concurrent 50MB FPGA jobs queue on the link's bandwidth phase",
		Run:   runAblContention,
	})
}

func runAblContention() []*metrics.Table {
	t := &metrics.Table{
		Title:  "Concurrent gzip(50MB) FPGA invocations: makespan vs concurrency",
		Header: []string{"concurrent requests", "makespan", "per-request avg"},
	}
	for _, conc := range []int{1, 2, 4} {
		var makespan time.Duration
		sandboxed(func(p *sim.Proc) {
			rt := newMolecule(p, hw.Config{FPGAs: 1}, molecule.DefaultOptions())
			if err := rt.Deploy(p, "gzip-compression", molecule.DefaultProfile(hw.FPGA)); err != nil {
				panic(err)
			}
			arg := workloads.Arg{Bytes: 50 << 20}
			rt.Invoke(p, "gzip-compression", molecule.InvokeOptions{PU: -1, Arg: arg}) // warm
			wg := sim.NewWaitGroup(rt.Env)
			start := p.Now()
			for i := 0; i < conc; i++ {
				wg.Add(1)
				rt.Env.Spawn("req", func(cp *sim.Proc) {
					defer wg.Done()
					if _, err := rt.Invoke(cp, "gzip-compression", molecule.InvokeOptions{PU: -1, Arg: arg}); err != nil {
						panic(err)
					}
				})
			}
			wg.Wait(p)
			makespan = p.Now().Sub(start)
		})
		t.AddRow(fmt.Sprintf("%d", conc), fd(makespan),
			fd(makespan/time.Duration(conc)))
	}
	return []*metrics.Table{t}
}

func init() {
	register(Experiment{
		ID:    "abl-templates",
		Title: "Ablation: dedicated vs generic cfork templates (§4.2)",
		Paper: "dedicated templates keep per-function dependency import off the cold-start path",
		Run:   runAblTemplates,
	})
}

func runAblTemplates() []*metrics.Table {
	t := &metrics.Table{
		Title:  "cfork cold start by template kind (dependency-heavy functions)",
		Header: []string{"function", "generic template", "dedicated template", "saving"},
	}
	for _, fn := range []string{"linpack", "matmul", "pyaes"} {
		measure := func(mode molecule.StartupMode) time.Duration {
			var d time.Duration
			sandboxed(func(p *sim.Proc) {
				opts := molecule.DefaultOptions()
				opts.Startup = mode
				rt := newMolecule(p, hw.Config{}, opts)
				if err := rt.Deploy(p, fn); err != nil {
					panic(err)
				}
				rt.ContainerRuntimeOn(0).EnsureTemplate(p, lang.Python)
				res, err := rt.Invoke(p, fn, molecule.InvokeOptions{PU: -1, ForceCold: true})
				if err != nil {
					panic(err)
				}
				d = res.Startup
			})
			return d
		}
		gen, ded := measure(molecule.StartupGenericCfork), measure(molecule.StartupCfork)
		t.AddRow(fn, fd(gen), fd(ded), fd(gen-ded))
	}
	return []*metrics.Table{t}
}
