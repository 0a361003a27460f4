package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/loadgen"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// config is what one rep of a workload receives: the seed its inputs derive
// from, a scale on its op count (1 is the benchmark size, tests run at
// 0.01), and the OS worker count for the sharded cluster kernel.
type config struct {
	seed    int64
	scale   float64
	workers int
}

// workload is one traffic shape. setup builds and boots everything up to
// the first op (timed as setup_s) and returns the measured phase.
type workload struct {
	name  string
	why   string
	shape string
	// primary is the op kind whose latency is the headline: "invoke" or
	// "chain".
	primary string
	setup   func(cfg config) (measure func() (*outcome, error), err error)
}

// outcome is one measured phase: the client spans plus the end state the
// fingerprint and the virtual metrics need.
type outcome struct {
	spans     []span
	vstart    sim.Time // virtual clock when the measured phase began
	vend      sim.Time
	events    int64 // kernel events scheduled during the measured phase
	liveProcs int   // sim procs still parked after quiescence
	expected  int   // ops a closed loop issued; 0 for open loops
	boss      *bossState
	mem       memState
}

// bossState is the cluster control plane's end state.
type bossState struct {
	served     []int
	stolen     int
	queuedPeak int
	inflight   int
}

// memState is the end-state memory of every PU's container runtime.
type memState struct {
	instPSS     float64 // bytes
	tmplPSS     float64 // bytes
	zygoteNodes int
	shapes      string // zygote forest shapes, for the fingerprint
}

var workloadList = []*workload{
	{
		name: "cluster-steady",
		why:  "open loop below capacity: warm path, affinity routing and sharded windows; the boss steal/queue path stays idle",
		shape: "4 machines (CPU+2 DPU, default capacity), open loop Poisson 1000 req/s x 20 s virtual, " +
			"Zipf 1.1 over 8 FunctionBench fns + 20% MapReduce chains",
		primary: "invoke",
		setup:   openLoopSetup(1000, 20*time.Second),
	},
	{
		name: "cluster-saturated",
		why:  "closed loop past capacity: keeps the boss steal/queue/requeue paths and molecule's saturation errors hot",
		shape: "4 machines (CPU+2 DPU, capacity 4 per general-purpose PU), closed loop 96 clients x 200 ops, " +
			"same mix as cluster-steady",
		primary: "invoke",
		setup:   closedLoopSetup(4, 96, 200),
	},
	{
		name: "coldstart-zygote",
		why:  "closed loop of forced cold starts: mem/lang/sandbox cfork and the zygote forest do the work, no cluster or nIPC",
		shape: "1 machine (CPU+1 DPU), ZygoteTree on, closed loop 1 client x 30000 ForceCold invokes, " +
			"Zipf 1.2 over the 9-fn cold-start mix, every 4th pinned to the DPU",
		primary: "invoke",
		setup:   coldstartSetup,
	},
	{
		name: "chain-nipc",
		why:  "closed loop of warm 5-stage chains across host and DPUs: nIPC FIFOs and proc handoffs, no cold path after warm-up",
		shape: "1 machine (CPU+2 DPU), closed loop 8 clients x 1000 Alexa 5-stage chains, " +
			"512 B catalog payloads, each client's stage placement over {host, dpu0, dpu1} drawn from the seed",
		primary: "chain",
		setup:   chainSetup,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloadList {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled applies the config's scale to an op count, keeping at least one.
func (c config) scaled(n int) int {
	if m := int(float64(n) * c.scale); m > 0 {
		return m
	}
	return 1
}

// runtimeOptions is every workload's Molecule configuration: the paper's
// defaults plus the deterministic ±12% invoke-latency jitter that the
// artifact-evaluation experiment runs with (internal/bench/exp_artifact.go).
// Without it, single-invoke latencies take a handful of discrete values, and
// the p50 of cluster-steady and coldstart-zygote reads the same on every
// seed.
func runtimeOptions() molecule.Options {
	opts := molecule.DefaultOptions()
	opts.JitterPct = 0.12
	return opts
}

// clusterFns is the cluster workloads' single-function population: eight
// FunctionBench functions with mild skew, so the rendezvous map spreads
// homes across the fleet.
var clusterFns = []string{
	"pyaes", "matmul", "image-resize", "chameleon",
	"gzip-compression", "linpack", "image-processing", "helloworld",
}

// newCluster boots the 4-machine fleet and registers the cluster mix.
// capacity 0 keeps each PU's default instance capacity.
func newCluster(capacity int) (*cluster.Boss, error) {
	b, err := cluster.NewBoss(cluster.BossConfig{
		Machines: 4,
		HW:       hw.Config{DPUs: 2},
		Opts:     runtimeOptions(),
		Capacity: capacity,
	})
	if err != nil {
		return nil, err
	}
	profiles := []molecule.Profile{molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)}
	for _, fn := range append(append([]string(nil), clusterFns...), workloads.MapReduceChain()...) {
		if err := b.Register(fn, profiles...); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// runCluster starts the clients, runs the fleet to quiescence and collects
// the outcome.
func runCluster(b *cluster.Boss, workers int, start func(rec *recorder, out *outcome)) *outcome {
	rec := &recorder{boss: b}
	out := &outcome{vstart: b.Sharded.Now(), events: -b.Sharded.Scheduled()}
	start(rec, out)
	out.vend = b.Run(workers)
	out.events += b.Sharded.Scheduled()
	out.liveProcs = b.Sharded.LiveProcs()
	out.spans = rec.spans
	out.boss = &bossState{stolen: b.Stolen(), queuedPeak: b.QueuedPeak(), inflight: b.Inflight()}
	for _, n := range b.Nodes() {
		out.boss.served = append(out.boss.served, n.Served())
		out.mem.add(n.RT)
	}
	return out
}

// openLoopSetup drives the cluster with the loadgen Poisson stream.
// Latency counts from each request's scheduled arrival, which is when
// loadgen calls in, so the generator is never late.
func openLoopSetup(rate float64, window time.Duration) func(config) (func() (*outcome, error), error) {
	return func(cfg config) (func() (*outcome, error), error) {
		b, err := newCluster(0)
		if err != nil {
			return nil, err
		}
		measure := func() (*outcome, error) {
			var stats *loadgen.Stats
			var driveErr error
			out := runCluster(b, cfg.workers, func(rec *recorder, _ *outcome) {
				b.Env.Spawn("bench-client", func(p *sim.Proc) {
					stats, driveErr = loadgen.Drive(p, rec, loadgen.Config{
						Seed:          cfg.seed,
						Functions:     clusterFns,
						ZipfS:         1.1,
						RatePerSec:    rate,
						Duration:      time.Duration(cfg.scale * float64(window)),
						Chains:        [][]string{workloads.MapReduceChain()},
						ChainFraction: 0.2,
					})
				})
			})
			if driveErr != nil {
				return nil, driveErr
			}
			if stats.Requests != len(out.spans) {
				return nil, fmt.Errorf("loadgen issued %d requests, recorder saw %d", stats.Requests, len(out.spans))
			}
			return out, nil
		}
		return measure, nil
	}
}

// closedLoopSetup runs clients that each issue their next op when the last
// returns, from a seeded sequence with the open loop's mix. With more
// clients than instance slots, the boss queue never drains mid-run.
func closedLoopSetup(capacity, clients, perClient int) func(config) (func() (*outcome, error), error) {
	return func(cfg config) (func() (*outcome, error), error) {
		b, err := newCluster(capacity)
		if err != nil {
			return nil, err
		}
		measure := func() (*outcome, error) {
			rng := rand.New(rand.NewSource(cfg.seed))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(clusterFns)-1))
			mr := workloads.MapReduceChain()
			n := cfg.scaled(perClient)
			return runCluster(b, cfg.workers, func(rec *recorder, out *outcome) {
				out.expected = clients * n
				for c := 0; c < clients; c++ {
					ops := make([]int, n) // index into clusterFns; -1 is a chain
					for i := range ops {
						ops[i] = -1
						if rng.Float64() >= 0.2 {
							ops[i] = int(zipf.Uint64())
						}
					}
					b.Env.Spawn(fmt.Sprintf("bench-client-%d", c), func(p *sim.Proc) {
						for _, op := range ops {
							// Failures are recorded in the span; the loop goes on.
							if op < 0 {
								_, _ = rec.InvokeChain(p, mr, molecule.ChainOptions{})
							} else {
								_, _ = rec.Invoke(p, clusterFns[op], molecule.DefaultInvokeOptions())
							}
						}
					})
				}
			}), nil
		}
		return measure, nil
	}
}

// bootMachine builds one machine on a fresh Env, boots Molecule on it with
// the evaluation function catalog and deploys fns with CPU and DPU
// profiles, running the Env to quiescence.
func bootMachine(dpus int, opts molecule.Options, fns []string) (*sim.Env, *molecule.Runtime, error) {
	env := sim.NewEnv()
	var rt *molecule.Runtime
	var err error
	env.Spawn("boot", func(p *sim.Proc) {
		rt, err = molecule.New(p, hw.Build(p.Env(), hw.Config{DPUs: dpus}), workloads.NewRegistry(), opts)
		for _, fn := range fns {
			if err != nil {
				return
			}
			err = rt.Deploy(p, fn, molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU))
		}
	})
	env.Run()
	return env, rt, err
}

// runMachine runs the single-machine Env to quiescence after start has
// spawned the clients, and collects the outcome.
func runMachine(env *sim.Env, rt *molecule.Runtime, start func(rec *recorder, out *outcome)) *outcome {
	rec := &recorder{rt: rt}
	out := &outcome{vstart: env.Now(), events: -env.Scheduled()}
	start(rec, out)
	out.vend = env.Run()
	out.events += env.Scheduled()
	out.liveProcs = env.LiveProcs()
	out.spans = rec.spans
	out.mem.add(rt)
	return out
}

// coldStartMix is the Zipf-ranked cold-start population, most popular
// first: shared numpy/blas stacks, the image stack and singletons, so the
// zygote fitter has real package structure to find.
var coldStartMix = []string{
	"image-resize", "matmul", "pyaes", "chameleon", "linpack",
	"gzip-compression", "dd", "image-processing", "helloworld",
}

func coldstartSetup(cfg config) (func() (*outcome, error), error) {
	opts := runtimeOptions()
	opts.ZygoteTree = true
	opts.ZygoteSeed = uint64(cfg.seed)
	env, rt, err := bootMachine(1, opts, coldStartMix)
	if err != nil {
		return nil, err
	}
	dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
	measure := func() (*outcome, error) {
		rng := rand.New(rand.NewSource(cfg.seed))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(coldStartMix)-1))
		n := cfg.scaled(30000)
		return runMachine(env, rt, func(rec *recorder, out *outcome) {
			out.expected = n
			env.Spawn("bench-client", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					pin := hw.PUID(-1)
					if i%4 == 3 {
						pin = dpu
					}
					_, _ = rec.Invoke(p, coldStartMix[zipf.Uint64()], molecule.InvokeOptions{PU: pin, ForceCold: true})
				}
			})
		}), nil
	}
	return measure, nil
}

// chainSetup runs the Alexa chain from the unmodified catalog (512 B
// payloads). Each client draws one stage placement from the seed and runs
// all its chains there. Chain stages carry no jitter, so a chain's latency
// is fixed by its placement: drawing a placement per chain instead would
// cover the whole placement space in every run, and p99 would read the
// same on every seed.
func chainSetup(cfg config) (func() (*outcome, error), error) {
	chain := workloads.AlexaChain()
	env, rt, err := bootMachine(2, runtimeOptions(), chain)
	if err != nil {
		return nil, err
	}
	pus := []hw.PUID{rt.HostID()}
	for _, pu := range rt.Machine.PUsOfKind(hw.DPU) {
		pus = append(pus, pu.ID)
	}
	measure := func() (*outcome, error) {
		rng := rand.New(rand.NewSource(cfg.seed))
		n := cfg.scaled(1000)
		return runMachine(env, rt, func(rec *recorder, out *outcome) {
			out.expected = 8 * n
			for c := 0; c < 8; c++ {
				placement := make([]hw.PUID, len(chain))
				for j := range placement {
					placement[j] = pus[rng.Intn(len(pus))]
				}
				env.Spawn(fmt.Sprintf("bench-client-%d", c), func(p *sim.Proc) {
					for i := 0; i < n; i++ {
						_, _ = rec.InvokeChain(p, chain, molecule.ChainOptions{Placement: placement})
					}
				})
			}
		}), nil
	}
	return measure, nil
}

// add folds one runtime's per-PU container memory into the state.
func (m *memState) add(rt *molecule.Runtime) {
	for _, pu := range rt.Machine.PUs() {
		cr := rt.ContainerRuntimeOn(pu.ID)
		if cr == nil {
			continue
		}
		_, inst, tmpl := cr.MemoryStats()
		m.instPSS += inst
		m.tmplPSS += tmpl
		for _, kind := range []lang.Kind{lang.Python, lang.Node} {
			if tr := cr.Forest(kind); tr != nil {
				m.zygoteNodes += tr.LiveNodes()
				m.shapes += tr.ShapeString() + ";"
			}
		}
	}
}
