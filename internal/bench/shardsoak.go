package bench

// Sharded-kernel soak: the scaling workload behind BENCH_sim.json.
//
// The workload simulates M machines, each with a driver that performs a
// stream of invocations (a service-time Sleep per invocation) and forwards
// every sendEvery-th result to the next machine over a cross-machine
// interconnect.
// The service times are coupled — each machine's next service time depends on
// how many messages it has received so far — so the machines cannot be
// simulated independently: the experiment only makes sense if cross-machine
// messages arrive exactly when they should.
//
// Every sweep point runs the *same* workload, only partitioned differently:
// shards=1 puts all machines in one domain (one event heap — the classic
// monolithic kernel's behavior), shards=N spreads machines over N domains
// under the conservative windowed driver, with the interconnect's base
// latency as the lookahead. Smaller per-domain heaps are the whole speedup:
// the driver runs every domain on one goroutine. The sweep verifies every
// point produces the identical fingerprint (per-machine counters, total
// scheduled events, final virtual clock) before reporting throughput, so the
// speedup column can never come from a divergent simulation.
//
// All event timestamps are residue-quantized (see quantum below) so no two
// machines ever act at the same virtual instant; the global event order is
// therefore a total order shared by every partitioning, which is what makes
// the fingerprint — and the full event trace — partition-invariant.

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// sendEvery is the cross-machine fanout: every sendEvery-th invocation
// forwards its result to the next machine. It sets the density of pending
// arrivals in each domain's heap, which is what decides how often a
// machine's Sleep can take the lone-sleeper fast path.
const sendEvery = 6

// ShardSoakConfig parameterizes one soak run.
type ShardSoakConfig struct {
	Machines    int // simulated machines (each one driver proc)
	Invocations int // invocations per machine
	Shards      int // event-heap domains; machines are dealt round-robin

	// Telemetry, when non-nil, is attached as the kernel's window observer
	// and accumulates round/stall/flow counters over the run. Attach it to
	// a dedicated run, not the timed sweep points — observation is cheap
	// but not free, and BENCH_sim.json throughput should stay clean.
	Telemetry *obs.WindowTelemetry
}

// ShardSoakResult is one sweep point, serialized into BENCH_sim.json.
// ShardSoak fills one run's wall_ms; ShardSoakSweep replaces it with the
// median over its reps and fills the fields marked below.
type ShardSoakResult struct {
	Shards      int   `json:"shards"`
	Machines    int   `json:"machines"`
	Invocations int   `json:"invocations_per_machine"`
	Events      int64 `json:"events"`

	// Windowed rounds and the events they fired, per round, from a
	// dedicated observed run. Deterministic; filled by ShardSoakSweep.
	Rounds         int64   `json:"rounds"`
	EventsPerRound float64 `json:"events_per_round"`

	Reps         int     `json:"reps"` // timed runs behind the wall fields
	WallMS       float64 `json:"wall_ms"`
	WallQ1MS     float64 `json:"wall_ms_q1"`
	WallQ3MS     float64 `json:"wall_ms_q3"`
	EventsPerSec float64 `json:"events_per_sec"`     // events over the median wall
	Speedup      float64 `json:"speedup_vs_shards1"` // filled by ShardSoakSweep
	Fingerprint  string  `json:"fingerprint"`

	// Telemetry is the observed run's window telemetry.
	Telemetry *obs.WindowTelemetry `json:"-"`
}

// ShardSoak runs one soak configuration and reports its throughput and
// fingerprint. It fails if any cross-machine message is lost or if messages
// arrive out of (virtual-time) order at any machine — the zero-lost-work and
// monotone-clock invariants the long soak test leans on.
func ShardSoak(cfg ShardSoakConfig) (ShardSoakResult, error) {
	m := cfg.Machines
	if m < 2 {
		return ShardSoakResult{}, fmt.Errorf("shard soak needs at least 2 machines, got %d", m)
	}
	if cfg.Shards < 1 || cfg.Shards > m {
		return ShardSoakResult{}, fmt.Errorf("shards must be in [1,%d], got %d", m, cfg.Shards)
	}
	// Residue quantum: machine i's own events land at times ≡ i+1 (mod q),
	// arrivals at machine k land at times ≡ m+k+2 (mod q). All residues are
	// distinct and nonzero, so after the t=0 spawns no two machines ever act
	// at the same instant, in any partitioning.
	q := time.Duration(2*m + 2)
	// The link latency is the lookahead, i.e. the window width: at ~600ns·q
	// mean service time, 4000·q gives each machine dozens of fast-path
	// events per conservative barrier, so barrier cost stays in the noise.
	link := hw.Link{Kind: hw.LinkNetwork, BaseLat: 4000 * q} // ≡ 0 (mod q)

	sh := sim.NewSharded(cfg.Shards)
	if cfg.Telemetry != nil {
		sh.SetWindowObserver(cfg.Telemetry)
	}
	ic := hw.NewInterconnect(sh, link)
	dom := func(machine int) int { return machine % cfg.Shards }

	inv := make([]int, m)       // invocations completed per machine
	recv := make([]int, m)      // messages received per machine
	sent := make([]int, m)      // messages sent per machine
	last := make([]sim.Time, m) // last arrival time per machine (monotonicity)
	var arriveErr error

	for i := 0; i < m; i++ {
		machine := i
		env := sh.Domain(dom(machine))
		next := (machine + 1) % m
		nextEnv := sh.Domain(dom(next))
		// Delay residue that lands the arrival in machine `next`'s arrival
		// class given the sender's clock residue of machine+1.
		extra := ((time.Duration(m+next+2-(machine+1)))%q + q) % q
		env.Spawn(fmt.Sprintf("driver-%d", machine), func(p *sim.Proc) {
			p.Sleep(time.Duration(machine + 1)) // enter the residue class
			for n := 0; n < cfg.Invocations; n++ {
				// Coupled service time: depends on messages received so
				// far, so mis-delivered messages change the fingerprint.
				p.Sleep(q * time.Duration(50+n%7+3*(recv[machine]%5)))
				inv[machine]++
				if n%sendEvery == 0 {
					sent[machine]++
					//lint:owned soak assertion state: last/recv slots for machine `next` are written only by deliveries on next's own domain, and the cross-shard fingerprint check enforces exactly that discipline
					ic.SendAfter(p.Env(), dom(next), 0, extra, func() {
						at := nextEnv.Now()
						if at < last[next] {
							arriveErr = fmt.Errorf("machine %d clock ran backwards: arrival at %d after %d", next, at, last[next])
						}
						last[next] = at
						recv[next]++
					})
				}
			}
		})
	}

	start := time.Now()
	sh.Run()
	wall := time.Since(start)

	if arriveErr != nil {
		return ShardSoakResult{}, arriveErr
	}
	wantRecv := (cfg.Invocations + sendEvery - 1) / sendEvery // sends: n%sendEvery==0, n<Invocations
	for k := 0; k < m; k++ {
		if inv[k] != cfg.Invocations {
			return ShardSoakResult{}, fmt.Errorf("machine %d completed %d/%d invocations", k, inv[k], cfg.Invocations)
		}
		if recv[k] != wantRecv {
			return ShardSoakResult{}, fmt.Errorf("machine %d lost messages: received %d, want %d", k, recv[k], wantRecv)
		}
	}

	events := sh.Scheduled()
	res := ShardSoakResult{
		Shards:       cfg.Shards,
		Machines:     m,
		Invocations:  cfg.Invocations,
		Events:       events,
		WallMS:       ms(wall),
		EventsPerSec: float64(events) / wall.Seconds(),
		Fingerprint:  fmt.Sprintf("inv=%v recv=%v sent=%v events=%d now=%d", inv, recv, sent, events, sh.Now()),
	}
	return res, nil
}

// ShardSoakSweep runs the soak at each shard count and verifies that every
// run produced the bit-identical fingerprint before computing speedups
// relative to the first point, which must be the monolithic heap: shards=1.
//
// Each point runs once with window telemetry attached, for its rounds and
// events per round. Then every point runs reps more times unobserved, for
// its wall-time median and quartiles; the reps go round-robin over the
// points, so a drift in host speed reaches every point alike.
func ShardSoakSweep(machines, invocations, reps int, shardCounts []int) ([]ShardSoakResult, error) {
	if len(shardCounts) == 0 || shardCounts[0] != 1 {
		return nil, fmt.Errorf("sweep must start at shards=1 (the monolithic baseline), got %v", shardCounts)
	}
	if reps < 1 {
		return nil, fmt.Errorf("sweep needs at least one timed rep, got %d", reps)
	}
	out := make([]ShardSoakResult, 0, len(shardCounts))
	run := func(shards int, wt *obs.WindowTelemetry) (ShardSoakResult, error) {
		r, err := ShardSoak(ShardSoakConfig{
			Machines: machines, Invocations: invocations,
			Shards: shards, Telemetry: wt,
		})
		if err == nil && len(out) > 0 && r.Fingerprint != out[0].Fingerprint {
			err = fmt.Errorf("diverged:\n  got  %s\n  want %s", r.Fingerprint, out[0].Fingerprint)
		}
		if err != nil {
			err = fmt.Errorf("shards=%d: %w", shards, err)
		}
		return r, err
	}
	for _, n := range shardCounts {
		wt := &obs.WindowTelemetry{}
		r, err := run(n, wt)
		if err != nil {
			return nil, err
		}
		r.Telemetry = wt
		r.Rounds = wt.Rounds()
		r.EventsPerRound = float64(wt.Events()) / float64(r.Rounds)
		out = append(out, r)
	}
	walls := make([]metrics.Recorder, len(shardCounts))
	for rep := 0; rep < reps; rep++ {
		for i, n := range shardCounts {
			r, err := run(n, nil)
			if err != nil {
				return nil, err
			}
			walls[i].Add(time.Duration(r.WallMS * 1e6))
		}
	}
	for i := range out {
		med := walls[i].Percentile(50)
		out[i].Reps = reps
		out[i].WallMS = ms(med)
		out[i].WallQ1MS = ms(walls[i].Percentile(25))
		out[i].WallQ3MS = ms(walls[i].Percentile(75))
		out[i].EventsPerSec = float64(out[i].Events) / med.Seconds()
		out[i].Speedup = out[i].EventsPerSec / out[0].EventsPerSec
	}
	return out, nil
}

// ShardSoakTable renders a sweep as a report table.
func ShardSoakTable(results []ShardSoakResult) *metrics.Table {
	t := &metrics.Table{
		Title: "Sharded kernel soak — events/sec vs shard count",
		Note: fmt.Sprintf("%d machines x %d invocations, identical fingerprint at every point; wall: median of %d reps",
			results[0].Machines, results[0].Invocations, results[0].Reps),
		Header: []string{"shards", "events", "rounds", "events/round", "wall ms [q1, q3]", "events/sec", "speedup"},
	}
	for _, r := range results {
		t.AddRow(
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%d", r.Rounds),
			fmt.Sprintf("%.1f", r.EventsPerRound),
			fmt.Sprintf("%.1f [%.1f, %.1f]", r.WallMS, r.WallQ1MS, r.WallQ3MS),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fr(r.Speedup),
		)
	}
	return t
}
