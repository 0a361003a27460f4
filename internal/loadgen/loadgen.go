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
// A run holds one per arrival, so the fields are packed into 16 bytes.
type outcome struct {
	total time.Duration
	cold  int32 // cold-started instances
	err   bool
	chain bool
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
//
// Arrivals are drawn lazily: a counting pass over the seeded stream sizes
// the outcome slots and the request counters, then one sim.AtSeries replays
// a fresh stream from the same seed, drawing each arrival just before it is
// due. The draws, the arrival times and every event's sequence number are
// those of scheduling all arrivals up front, so results are unchanged, but
// the host keeps only the outcome slots and the requests in flight.
func Drive(p *sim.Proc, target Invoker, cfg Config) (*Stats, error) {
	if len(cfg.Functions) == 0 {
		return nil, fmt.Errorf("loadgen: no functions")
	}
	if cfg.RatePerSec <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: rate and duration must be positive")
	}
	stats := &Stats{PerFunc: make(map[string]int)}
	for s := newStream(&cfg); ; {
		a, ok := s.next()
		if !ok {
			break
		}
		stats.Requests++
		if a.fn < 0 {
			stats.Chains++
			for _, fn := range a.chain {
				stats.PerFunc[fn]++
			}
			continue
		}
		stats.PerFunc[cfg.Functions[a.fn]]++
	}

	env := p.Env()
	start := p.Now()
	wg := sim.NewWaitGroup(env)
	wg.Add(stats.Requests)
	// Each request writes only its own outcome slot.
	slots := make([]outcome, stats.Requests)
	procNames := make([]string, len(cfg.Functions))
	for i, fn := range cfg.Functions {
		procNames[i] = "req-" + fn
	}
	replay := newStream(&cfg)
	// AtSeries draws arrival i+1 while arrival i fires, before it runs, so
	// the drawn arrivals alternate between two buffers.
	var drawn [2]arrival
	env.AtSeries(stats.Requests, func(i int) sim.Time {
		drawn[i&1], _ = replay.next()
		return start.After(drawn[i&1].at)
	}, func(i int) {
		out := &slots[i]
		if drawn[i&1].fn < 0 {
			chain := drawn[i&1].chain
			env.Spawn("chain-req", func(rp *sim.Proc) {
				defer wg.Done()
				res, err := target.InvokeChain(rp, chain, molecule.ChainOptions{Arg: cfg.Arg})
				out.chain = true
				if err != nil {
					out.err = true
					return
				}
				out.cold = int32(res.ColdStarts)
				out.total = res.Total
			})
			return
		}
		fi := drawn[i&1].fn
		env.Spawn(procNames[fi], func(rp *sim.Proc) {
			defer wg.Done()
			res, err := target.Invoke(rp, cfg.Functions[fi], molecule.InvokeOptions{PU: -1, Arg: cfg.Arg})
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
		stats.ColdStarts += int(out.cold)
		if out.chain {
			stats.ChainLatency.Add(out.total)
		} else {
			stats.Latency.Add(out.total)
		}
	}
	return stats, nil
}

// arrival is one request of the stream: its offset from the start of the
// run and either a chain or the index of a single function.
type arrival struct {
	at    time.Duration
	fn    int      // index into Config.Functions, or -1 for a chain
	chain []string // the chain when fn is -1
}

// stream is the seeded arrival sequence of a Config. Each next draws one
// arrival's gap, then its chain coin and chain or function pick, so two
// streams from the same Config yield the same arrivals.
type stream struct {
	cfg     *Config
	rng     *rand.Rand
	zipf    *rand.Zipf
	meanGap float64
	t       time.Duration
}

func newStream(cfg *Config) *stream {
	s := &stream{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), meanGap: float64(time.Second) / cfg.RatePerSec}
	if cfg.ZipfS > 1 {
		s.zipf = rand.NewZipf(s.rng, cfg.ZipfS, 1, uint64(len(cfg.Functions)-1))
	}
	return s
}

// next draws the next arrival; ok is false once the arrival time passes
// the run's duration, which ends the stream.
func (s *stream) next() (a arrival, ok bool) {
	s.t += time.Duration(s.rng.ExpFloat64() * s.meanGap)
	if s.t > s.cfg.Duration {
		return arrival{}, false
	}
	a.at = s.t
	if len(s.cfg.Chains) > 0 && s.rng.Float64() < s.cfg.ChainFraction {
		a.fn, a.chain = -1, s.cfg.Chains[s.rng.Intn(len(s.cfg.Chains))]
		return a, true
	}
	if s.zipf != nil {
		a.fn = int(s.zipf.Uint64())
	} else {
		a.fn = s.rng.Intn(len(s.cfg.Functions))
	}
	return a, true
}
