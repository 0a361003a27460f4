package cluster

// Deterministic cluster soak: the standard loadgen traffic model driven
// through a Boss, so the whole boss/worker control plane — rendezvous
// routing, work stealing, the central queue, cross-machine chains — runs
// under seeded load and folds into one canonical fingerprint. The bench
// harness wraps this with wall-clock timing for the scaling curve; this
// package stays wall-clock-free (it runs under the virtual clock and its
// fingerprints feed golden comparisons).

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/molecule"
	"repro/internal/sim"
)

// SoakConfig parameterizes one cluster soak run.
type SoakConfig struct {
	// Machines is the worker machine count.
	Machines int
	// HW configures each machine; zero value = CPU-only host.
	HW hw.Config
	// Capacity caps every general-purpose PU's instances (0 = default),
	// the saturation knob for work-stealing and queueing behavior.
	Capacity int

	// Seed/Functions/RatePerSec/Duration/ZipfS/Chains/ChainFraction are the
	// loadgen knobs (see loadgen.Config).
	Seed          int64
	Functions     []string
	RatePerSec    float64
	Duration      time.Duration
	ZipfS         float64
	Chains        [][]string
	ChainFraction float64
}

// DefaultSoakConfig is the checked-in soak shape: a mixed single-function
// population plus the MapReduce chain, hot enough to exercise stealing.
func DefaultSoakConfig(machines int) SoakConfig {
	return SoakConfig{
		Machines:      machines,
		HW:            hw.Config{DPUs: 2},
		Seed:          42,
		Functions:     []string{"pyaes", "matmul", "image-resize", "chameleon"},
		RatePerSec:    400,
		Duration:      2 * time.Second,
		ZipfS:         1.5,
		Chains:        [][]string{{"mr-splitter", "mr-mapper", "mr-reducer"}},
		ChainFraction: 0.2,
	}
}

// SoakResult is one soak run's outcome. Everything here is virtual-time
// state: two runs with the same SoakConfig produce identical results.
type SoakResult struct {
	Stats      *loadgen.Stats
	FinalTime  sim.Time
	Events     int64
	Served     []int // per machine
	Stolen     int
	QueuedPeak int
}

// Fingerprint folds the run into one canonical string: the loadgen stats
// fingerprint plus the boss's routing counters, per-machine service
// counts, total scheduled events, and the final virtual clock. This is
// the byte-identity witness the determinism tests and the BENCH_cluster.json
// snapshot compare.
func (r *SoakResult) Fingerprint() string {
	return fmt.Sprintf("%s | served=%v stolen=%d qpeak=%d events=%d now=%d",
		r.Stats.Fingerprint(), r.Served, r.Stolen, r.QueuedPeak, r.Events, r.FinalTime)
}

// Soak builds a Boss per the config, drives the loadgen stream through it
// from a client process on the boss domain, and runs the cluster to
// quiescence.
func Soak(cfg SoakConfig) (*SoakResult, error) {
	b, err := NewBoss(BossConfig{
		Machines: cfg.Machines,
		HW:       cfg.HW,
		Opts:     molecule.DefaultOptions(),
		Capacity: cfg.Capacity,
	})
	if err != nil {
		return nil, err
	}
	// CPU everywhere; DPU profiles too when the fleet has DPUs, so they
	// absorb overflow (the paper's density model).
	profiles := []molecule.Profile{molecule.DefaultProfile(hw.CPU)}
	if cfg.HW.DPUs > 0 {
		profiles = append(profiles, molecule.DefaultProfile(hw.DPU))
	}
	for _, fn := range cfg.Functions {
		if err := b.Register(fn, profiles...); err != nil {
			return nil, err
		}
	}
	for _, ch := range cfg.Chains {
		for _, fn := range ch {
			if _, ok := b.funcs[fn]; ok {
				continue
			}
			if err := b.Register(fn, profiles...); err != nil {
				return nil, err
			}
		}
	}

	var stats *loadgen.Stats
	var runErr error
	b.Env.Spawn("soak-client", func(p *sim.Proc) {
		stats, runErr = loadgen.Drive(p, b, loadgen.Config{
			Seed:          cfg.Seed,
			Functions:     cfg.Functions,
			ZipfS:         cfg.ZipfS,
			RatePerSec:    cfg.RatePerSec,
			Duration:      cfg.Duration,
			Chains:        cfg.Chains,
			ChainFraction: cfg.ChainFraction,
		})
	})
	final := b.Sharded.Run()
	if runErr != nil {
		return nil, runErr
	}
	if n := b.Inflight(); n != 0 {
		return nil, fmt.Errorf("cluster: soak left %d requests inflight", n)
	}
	res := &SoakResult{
		Stats:      stats,
		FinalTime:  final,
		Events:     b.Sharded.Scheduled(),
		Served:     make([]int, len(b.nodes)),
		Stolen:     b.stolen,
		QueuedPeak: b.queuedPeak,
	}
	for i, n := range b.nodes {
		res.Served[i] = n.served
	}
	return res, nil
}
