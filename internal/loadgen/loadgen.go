// Package loadgen generates steady-state serverless request streams against
// a Molecule runtime: Poisson arrivals with Zipf-distributed function
// popularity, the standard model for production FaaS traces (Shahrad et al.,
// which the paper cites for its keep-alive policies).
//
// The generator is deterministic for a given seed — arrivals are scheduled
// in virtual time, and every request records its outcome into a
// per-arrival slot that is folded into Stats only after the last request
// completes, so two runs with the same configuration produce identical
// results at any shard count.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Config describes one load-generation run.
type Config struct {
	// Seed makes the run reproducible.
	Seed int64
	// Functions is the invocation population (all must be deployed).
	Functions []string
	// ZipfS is the popularity skew (>1; larger = more skewed). 0 selects a
	// uniform popularity.
	ZipfS float64
	// RatePerSec is the mean Poisson arrival rate.
	RatePerSec float64
	// Duration is the virtual-time window during which requests arrive.
	Duration time.Duration
	// Arg parameterizes every invocation's cost model.
	Arg workloads.Arg
	// Chains, when non-empty, mixes chain invocations into the stream:
	// with probability ChainFraction a request invokes a random chain
	// instead of a single function.
	Chains        [][]string
	ChainFraction float64
}

// Stats aggregates one run's outcome. Latency holds single-function
// requests only; chain latencies go exclusively to ChainLatency, so the
// headline p50/p99 are not skewed by multi-function totals.
type Stats struct {
	Requests   int
	ColdStarts int
	Errors     int
	Latency    metrics.Recorder
	PerFunc    map[string]int
	// Chains counts chain-shaped requests and their latencies separately.
	Chains       int
	ChainLatency metrics.Recorder
}

// ColdRate returns the fraction of requests that cold-started.
func (s *Stats) ColdRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.ColdStarts) / float64(s.Requests)
}

// Fingerprint renders the run's outcome as a canonical string — the
// byte-identity witness compared across runs.
func (s *Stats) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "req=%d cold=%d err=%d chains=%d", s.Requests, s.ColdStarts, s.Errors, s.Chains)
	fmt.Fprintf(&b, " lat[n=%d avg=%v p50=%v p99=%v max=%v]",
		s.Latency.Count(), s.Latency.Avg(), s.Latency.Percentile(50), s.Latency.Percentile(99), s.Latency.Max())
	fmt.Fprintf(&b, " chain[n=%d avg=%v p99=%v]",
		s.ChainLatency.Count(), s.ChainLatency.Avg(), s.ChainLatency.Percentile(99))
	fns := make([]string, 0, len(s.PerFunc))
	for fn := range s.PerFunc {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		fmt.Fprintf(&b, " %s=%d", fn, s.PerFunc[fn])
	}
	return b.String()
}

// Invoker is the target a request stream drives: a single machine's
// Molecule runtime satisfies it directly, and the cluster boss/gateway
// adapt to it, so the same traffic model exercises one box or a whole
// cluster.
type Invoker interface {
	Invoke(p *sim.Proc, funcName string, opts molecule.InvokeOptions) (molecule.Result, error)
	InvokeChain(p *sim.Proc, names []string, opts molecule.ChainOptions) (molecule.ChainResult, error)
}

// outcome is one request's result slot, written by exactly one request
// process and read only after every request finished — no shared-state
// mutation races, and folding in arrival order keeps Stats deterministic.
type outcome struct {
	err   bool
	cold  int
	chain bool
	total time.Duration
}

// Run drives the configured request stream against rt from process p,
// returning once every request has completed. Requests execute concurrently
// (each in its own simulation process), so warm-pool contention and
// cold-start amplification behave as they would under real load.
func Run(p *sim.Proc, rt *molecule.Runtime, cfg Config) (*Stats, error) {
	for _, fn := range cfg.Functions {
		if _, err := rt.Deployment(fn); err != nil {
			return nil, err
		}
	}
	return Drive(p, rt, cfg)
}

// Drive is Run against any Invoker (a runtime, a gateway, a cluster boss);
// it does not pre-check deployments, since lazily-deploying targets have
// nothing deployed until first use.
func Drive(p *sim.Proc, target Invoker, cfg Config) (*Stats, error) {
	if len(cfg.Functions) == 0 {
		return nil, fmt.Errorf("loadgen: no functions")
	}
	if cfg.RatePerSec <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: rate and duration must be positive")
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

	stats := &Stats{PerFunc: make(map[string]int)}
	env := p.Env()
	wg := sim.NewWaitGroup(env)

	// Schedule arrivals up front (deterministic given the seed). Each
	// request writes only its own outcome slot.
	var slots []outcome
	meanGap := float64(time.Second) / cfg.RatePerSec
	for t := time.Duration(0); ; {
		gap := time.Duration(rng.ExpFloat64() * meanGap)
		t += gap
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
	// Fold the slots in arrival order: single-function latencies feed the
	// headline recorder, chain latencies their own (the old conflation
	// skewed p50/p99).
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
	return stats, nil
}

// PoissonGap is exposed for tests: the expected inter-arrival gap for a
// rate.
func PoissonGap(ratePerSec float64) time.Duration {
	return time.Duration(math.Round(float64(time.Second) / ratePerSec))
}
