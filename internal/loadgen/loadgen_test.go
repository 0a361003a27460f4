package loadgen

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func driveLoad(t *testing.T, cfg Config, opts molecule.Options) *Stats {
	t.Helper()
	var stats *Stats
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 1})
	env.Spawn("driver", func(p *sim.Proc) {
		rt, err := molecule.New(p, m, workloads.NewRegistry(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range cfg.Functions {
			if err := rt.Deploy(p, fn,
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
				t.Fatal(err)
			}
		}
		stats, err = Run(p, rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
	})
	env.Run()
	if env.LiveProcs() != 0 {
		t.Fatalf("deadlock: %d procs blocked", env.LiveProcs())
	}
	return stats
}

func baseCfg() Config {
	return Config{
		Seed:       42,
		Functions:  []string{"matmul", "pyaes", "chameleon", "image-resize"},
		ZipfS:      1.2,
		RatePerSec: 50,
		Duration:   10 * time.Second,
	}
}

func TestRunProducesRequests(t *testing.T) {
	stats := driveLoad(t, baseCfg(), molecule.DefaultOptions())
	// Poisson(50/s) over 10s → ~500 requests.
	if stats.Requests < 350 || stats.Requests > 650 {
		t.Errorf("requests = %d, want ~500", stats.Requests)
	}
	if stats.Errors != 0 {
		t.Errorf("errors = %d", stats.Errors)
	}
	if stats.Latency.Count() != stats.Requests {
		t.Errorf("latency samples %d != requests %d", stats.Latency.Count(), stats.Requests)
	}
	if stats.ColdStarts == 0 || stats.ColdStarts == stats.Requests {
		t.Errorf("cold starts = %d of %d — expected a mix", stats.ColdStarts, stats.Requests)
	}
	total := 0
	for _, n := range stats.PerFunc {
		total += n
	}
	if total != stats.Requests {
		t.Error("per-function counts do not sum to total")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := driveLoad(t, baseCfg(), molecule.DefaultOptions())
	b := driveLoad(t, baseCfg(), molecule.DefaultOptions())
	if a.Requests != b.Requests || a.ColdStarts != b.ColdStarts {
		t.Errorf("same seed diverged: %d/%d vs %d/%d requests/cold",
			a.Requests, a.ColdStarts, b.Requests, b.ColdStarts)
	}
	if a.Latency.Avg() != b.Latency.Avg() {
		t.Errorf("same seed different avg latency: %v vs %v", a.Latency.Avg(), b.Latency.Avg())
	}
	c := baseCfg()
	c.Seed = 43
	other := driveLoad(t, c, molecule.DefaultOptions())
	if other.Requests == a.Requests && other.ColdStarts == a.ColdStarts &&
		other.Latency.Avg() == a.Latency.Avg() {
		t.Error("different seeds produced identical runs")
	}
}

func TestZipfSkewsPopularity(t *testing.T) {
	stats := driveLoad(t, baseCfg(), molecule.DefaultOptions())
	// The head function must dominate under s=1.2 skew.
	max, sum := 0, 0
	for _, n := range stats.PerFunc {
		if n > max {
			max = n
		}
		sum += n
	}
	if float64(max)/float64(sum) < 0.4 {
		t.Errorf("head function got %.0f%% of traffic, want >40%% under Zipf", 100*float64(max)/float64(sum))
	}
}

// TestKeepAliveCapacityControlsColdRate is the keep-alive ablation: a
// larger warm cache must produce a lower cold-start rate.
func TestKeepAliveCapacityControlsColdRate(t *testing.T) {
	rate := func(capacity int) float64 {
		opts := molecule.DefaultOptions()
		opts.KeepWarmPerPU = capacity
		return driveLoad(t, baseCfg(), opts).ColdRate()
	}
	tiny := rate(1)
	big := rate(64)
	if tiny <= big {
		t.Errorf("cold rate with cache=1 (%.2f) not above cache=64 (%.2f)", tiny, big)
	}
	if big > 0.2 {
		t.Errorf("cold rate %.2f with a large cache — keep-alive not working", big)
	}
}

func TestUniformWhenNoSkew(t *testing.T) {
	cfg := baseCfg()
	cfg.ZipfS = 0
	stats := driveLoad(t, cfg, molecule.DefaultOptions())
	for fn, n := range stats.PerFunc {
		frac := float64(n) / float64(stats.Requests)
		if frac < 0.1 || frac > 0.45 {
			t.Errorf("function %s got %.0f%% under uniform popularity", fn, frac*100)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{})
	env.Spawn("driver", func(p *sim.Proc) {
		rt, _ := molecule.New(p, m, workloads.NewRegistry(), molecule.DefaultOptions())
		if _, err := Run(p, rt, Config{}); err == nil {
			t.Error("empty config accepted")
		}
		if _, err := Run(p, rt, Config{Functions: []string{"matmul"}, RatePerSec: 1, Duration: time.Second}); err == nil {
			t.Error("undeployed function accepted")
		}
		rt.Deploy(p, "matmul")
		if _, err := Run(p, rt, Config{Functions: []string{"matmul"}, RatePerSec: 0, Duration: time.Second}); err == nil {
			t.Error("zero rate accepted")
		}
	})
	env.Run()
}

func TestChainMixInStream(t *testing.T) {
	cfg := baseCfg()
	cfg.Chains = [][]string{{"mr-splitter", "mr-mapper", "mr-reducer"}}
	cfg.ChainFraction = 0.3
	var stats *Stats
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{})
	env.Spawn("driver", func(p *sim.Proc) {
		rt, err := molecule.New(p, m, workloads.NewRegistry(), molecule.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		fns := append(append([]string{}, cfg.Functions...), cfg.Chains[0]...)
		for _, fn := range fns {
			if err := rt.Deploy(p, fn); err != nil {
				t.Fatal(err)
			}
		}
		stats, err = Run(p, rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
	})
	env.Run()
	if env.LiveProcs() != 0 {
		t.Fatalf("deadlock: %d procs", env.LiveProcs())
	}
	if stats.Chains == 0 {
		t.Fatal("no chain requests in the mix")
	}
	frac := float64(stats.Chains) / float64(stats.Requests)
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("chain fraction = %.2f, want ~0.3", frac)
	}
	if stats.ChainLatency.Count() != stats.Chains-stats.Errors {
		t.Errorf("chain latencies %d != chains %d", stats.ChainLatency.Count(), stats.Chains)
	}
	if stats.Errors != 0 {
		t.Errorf("errors = %d", stats.Errors)
	}
	// Chains cost more than single invokes on average.
	if stats.ChainLatency.Avg() <= 0 {
		t.Error("no chain latency recorded")
	}
}

// sleepInvoker serves every request in a fixed virtual time, so a stream
// against it keeps a handful of requests in flight.
type sleepInvoker time.Duration

func (d sleepInvoker) Invoke(p *sim.Proc, fn string, _ molecule.InvokeOptions) (molecule.Result, error) {
	p.Sleep(time.Duration(d))
	return molecule.Result{Fn: fn, Total: time.Duration(d)}, nil
}

func (d sleepInvoker) InvokeChain(p *sim.Proc, _ []string, _ molecule.ChainOptions) (molecule.ChainResult, error) {
	p.Sleep(time.Duration(d))
	return molecule.ChainResult{Total: time.Duration(d)}, nil
}

// TestDriveLiveHeapBounded: beyond its per-request outcome slots, a running
// Drive keeps only the requests in flight. The live heap a tenth of the way
// into a 20000-arrival stream exceeds the one into a 2000-arrival stream by
// at most the extra slots plus a small constant, so nothing is held per
// arrival not yet due.
func TestDriveLiveHeapBounded(t *testing.T) {
	live := func(window time.Duration) (heap uint64, requests int) {
		env := sim.NewEnv()
		var stats *Stats
		env.Spawn("driver", func(p *sim.Proc) {
			var err error
			stats, err = Drive(p, sleepInvoker(time.Millisecond), Config{
				Seed:          7,
				Functions:     []string{"matmul", "pyaes", "chameleon"},
				ZipfS:         1.2,
				RatePerSec:    10000,
				Duration:      window,
				Chains:        [][]string{{"pyaes", "matmul"}},
				ChainFraction: 0.2,
			})
			if err != nil {
				t.Error(err)
			}
		})
		env.SpawnAfter(window/10, "probe", func(p *sim.Proc) {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(env) // the stream's events and slots must count as live
			heap = ms.HeapAlloc
		})
		env.Run()
		return heap, stats.Requests
	}
	early, nEarly := live(200 * time.Millisecond)
	late, nLate := live(2 * time.Second)
	slots := uint64(nLate-nEarly) * uint64(unsafe.Sizeof(outcome{}))
	const slack = 128 << 10
	t.Logf("live heap %d B at %d arrivals, %d B at %d (slots %d B)", early, nEarly, late, nLate, slots)
	if late > early+slots+slack {
		t.Errorf("live heap grew %d KB from %d to %d arrivals (%d -> %d B), want under %d KB of slots + %d KB",
			(late-early)>>10, nEarly, nLate, early, late, slots>>10, slack>>10)
	}
}
