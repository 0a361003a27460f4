package loadgen_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// upfrontDrive is the reference for loadgen.Drive: it draws every arrival
// first and schedules each with its own Env.At.
func upfrontDrive(p *sim.Proc, target loadgen.Invoker, cfg loadgen.Config) *loadgen.Stats {
	type outcome struct {
		err   bool
		cold  int
		chain bool
		total time.Duration
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.ZipfS > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Functions)-1))
	}
	pick := func() string {
		if zipf != nil {
			return cfg.Functions[zipf.Uint64()]
		}
		return cfg.Functions[rng.Intn(len(cfg.Functions))]
	}
	stats := &loadgen.Stats{PerFunc: make(map[string]int)}
	env := p.Env()
	wg := sim.NewWaitGroup(env)
	var slots []outcome
	meanGap := float64(time.Second) / cfg.RatePerSec
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() * meanGap)
		if t > cfg.Duration {
			break
		}
		stats.Requests++
		slot := len(slots)
		slots = append(slots, outcome{})
		if len(cfg.Chains) > 0 && rng.Float64() < cfg.ChainFraction {
			chain := cfg.Chains[rng.Intn(len(cfg.Chains))]
			stats.Chains++
			for _, fn := range chain {
				stats.PerFunc[fn]++
			}
			wg.Add(1)
			env.At(p.Now().After(t), func() {
				env.Spawn("chain-req", func(rp *sim.Proc) {
					defer wg.Done()
					res, err := target.InvokeChain(rp, chain, molecule.ChainOptions{Arg: cfg.Arg})
					out := &slots[slot]
					out.chain = true
					if err != nil {
						out.err = true
						return
					}
					out.cold = res.ColdStarts
					out.total = res.Total
				})
			})
			continue
		}
		fn := pick()
		stats.PerFunc[fn]++
		wg.Add(1)
		env.At(p.Now().After(t), func() {
			env.Spawn("req-"+fn, func(rp *sim.Proc) {
				defer wg.Done()
				res, err := target.Invoke(rp, fn, molecule.InvokeOptions{PU: -1, Arg: cfg.Arg})
				out := &slots[slot]
				if err != nil {
					out.err = true
					return
				}
				if res.Cold {
					out.cold = 1
				}
				out.total = res.Total
			})
		})
	}
	wg.Wait(p)
	for i := range slots {
		out := &slots[i]
		if out.err {
			stats.Errors++
			continue
		}
		stats.ColdStarts += out.cold
		if out.chain {
			stats.ChainLatency.Add(out.total)
		} else {
			stats.Latency.Add(out.total)
		}
	}
	return stats
}

// recorder logs every request's process, start, end and outcome, in the
// order requests finish.
type recorder struct {
	target loadgen.Invoker
	log    strings.Builder
}

func (r *recorder) Invoke(p *sim.Proc, fn string, opts molecule.InvokeOptions) (molecule.Result, error) {
	start := p.Now()
	res, err := r.target.Invoke(p, fn, opts)
	fmt.Fprintf(&r.log, "%s %v-%v cold=%v total=%v err=%v sched=%d\n",
		p.Name(), start, p.Now(), res.Cold, res.Total, err, p.Env().Scheduled())
	return res, err
}

func (r *recorder) InvokeChain(p *sim.Proc, names []string, opts molecule.ChainOptions) (molecule.ChainResult, error) {
	start := p.Now()
	res, err := r.target.InvokeChain(p, names, opts)
	fmt.Fprintf(&r.log, "%s %v %v-%v cold=%d total=%v edges=%v err=%v sched=%d\n",
		p.Name(), names, start, p.Now(), res.ColdStarts, res.Total, res.EdgeLatency, err, p.Env().Scheduled())
	return res, err
}

// driveRun is one run's observable outcome.
type driveRun struct {
	stats     string
	requests  string
	scheduled int64
	end       sim.Time
}

type driveFunc func(p *sim.Proc, target loadgen.Invoker, cfg loadgen.Config) *loadgen.Stats

func streaming(p *sim.Proc, target loadgen.Invoker, cfg loadgen.Config) *loadgen.Stats {
	stats, err := loadgen.Drive(p, target, cfg)
	if err != nil {
		panic(err)
	}
	return stats
}

func statsOf(s *loadgen.Stats) string {
	return fmt.Sprintf("%s requests=%d chains=%d perfunc=%v", s.Fingerprint(), s.Requests, s.Chains, s.PerFunc)
}

// onRuntime drives cfg against a one-machine Molecule runtime, starting
// the stream after a deploy phase, so it begins at a nonzero virtual time.
func onRuntime(t *testing.T, cfg loadgen.Config, drive driveFunc) driveRun {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 1})
	rec := &recorder{}
	var stats *loadgen.Stats
	env.Spawn("driver", func(p *sim.Proc) {
		rt, err := molecule.New(p, m, workloads.NewRegistry(), molecule.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range append(append([]string(nil), cfg.Functions...), workloads.MapReduceChain()...) {
			if err := rt.Deploy(p, fn, molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
				t.Fatal(err)
			}
		}
		rec.target = rt
		stats = drive(p, rec, cfg)
	})
	end := env.Run()
	return driveRun{stats: statsOf(stats), requests: rec.log.String(), scheduled: env.Scheduled(), end: end}
}

// onBoss drives cfg against a two-machine cluster Boss.
func onBoss(t *testing.T, cfg loadgen.Config, drive driveFunc) driveRun {
	b, err := cluster.NewBoss(cluster.BossConfig{Machines: 2, HW: hw.Config{DPUs: 1}, Opts: molecule.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range append(append([]string(nil), cfg.Functions...), workloads.MapReduceChain()...) {
		if err := b.Register(fn, molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
	}
	rec := &recorder{target: b}
	var stats *loadgen.Stats
	b.Env.Spawn("driver", func(p *sim.Proc) { stats = drive(p, rec, cfg) })
	end := b.Run(1)
	return driveRun{stats: statsOf(stats), requests: rec.log.String(), scheduled: b.Sharded.Scheduled(), end: end}
}

// TestDriveMatchesUpfront: the streaming Drive is observably the up-front
// reference — the same Stats, the same requests at the same virtual times
// with the same outcomes, and the same Scheduled() — over several seeds,
// with and without chains and skew, on one runtime and on a cluster Boss.
func TestDriveMatchesUpfront(t *testing.T) {
	fns := []string{"matmul", "pyaes", "chameleon", "image-resize", "helloworld"}
	cfgs := []loadgen.Config{
		{Functions: fns, ZipfS: 1.2, RatePerSec: 150, Duration: 2 * time.Second},
		{Functions: fns, RatePerSec: 300, Duration: time.Second,
			Chains: [][]string{workloads.MapReduceChain()}, ChainFraction: 0.25},
		{Functions: fns, ZipfS: 1.1, RatePerSec: 400, Duration: time.Second,
			Chains: [][]string{workloads.MapReduceChain(), {"pyaes", "matmul"}}, ChainFraction: 0.2},
	}
	targets := []struct {
		name string
		run  func(*testing.T, loadgen.Config, driveFunc) driveRun
	}{{"runtime", onRuntime}, {"boss", onBoss}}
	for _, tg := range targets {
		for ci, cfg := range cfgs {
			for seed := int64(1); seed <= 3; seed++ {
				cfg.Seed = seed
				want := tg.run(t, cfg, upfrontDrive)
				got := tg.run(t, cfg, streaming)
				name := fmt.Sprintf("%s cfg %d seed %d", tg.name, ci, seed)
				if got.stats != want.stats {
					t.Errorf("%s: stats\n got  %s\n want %s", name, got.stats, want.stats)
				}
				if got.requests != want.requests {
					t.Errorf("%s: per-request outcomes differ\n--- up front ---\n%s--- streamed ---\n%s", name, want.requests, got.requests)
				}
				if got.scheduled != want.scheduled || got.end != want.end {
					t.Errorf("%s: scheduled %d end %v, want %d end %v", name, got.scheduled, got.end, want.scheduled, want.end)
				}
			}
		}
	}
}
