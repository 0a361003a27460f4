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
// scheduled events, final virtual clock) before reporting it, and the
// BENCH_sim.json snapshot test pins those fingerprints. BenchmarkShardSoak
// times the same configurations for the kernel's throughput.
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
	// and accumulates round/stall/flow counters over the run. Leave it nil
	// in timed runs: observation is cheap but not free.
	Telemetry *obs.WindowTelemetry
}

// ShardSoakResult is one sweep point, serialized into BENCH_sim.json.
type ShardSoakResult struct {
	Shards      int   `json:"shards"`
	Machines    int   `json:"machines"`
	Invocations int   `json:"invocations_per_machine"`
	Events      int64 `json:"events"`

	// Windowed rounds and the events they fired, per round, from the
	// run's window telemetry. Filled by ShardSoakSweep.
	Rounds         int64   `json:"rounds"`
	EventsPerRound float64 `json:"events_per_round"`

	Fingerprint string `json:"fingerprint"`

	// Telemetry is the observed run's window telemetry.
	Telemetry *obs.WindowTelemetry `json:"-"`
}

// ShardSoak runs one soak configuration and reports its event count and
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

	sh.Run()

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
	return ShardSoakResult{
		Shards:      cfg.Shards,
		Machines:    m,
		Invocations: cfg.Invocations,
		Events:      events,
		Fingerprint: fmt.Sprintf("inv=%v recv=%v sent=%v events=%d now=%d", inv, recv, sent, events, sh.Now()),
	}, nil
}

// ShardSoakSweep runs the soak once at each shard count, with window
// telemetry attached for its rounds and events per round, and verifies
// that every point produced the bit-identical fingerprint of the first,
// which must be the monolithic heap: shards=1.
func ShardSoakSweep(machines, invocations int, shardCounts []int) ([]ShardSoakResult, error) {
	if len(shardCounts) == 0 || shardCounts[0] != 1 {
		return nil, fmt.Errorf("sweep must start at shards=1 (the monolithic baseline), got %v", shardCounts)
	}
	out := make([]ShardSoakResult, 0, len(shardCounts))
	for _, n := range shardCounts {
		wt := &obs.WindowTelemetry{}
		r, err := ShardSoak(ShardSoakConfig{
			Machines: machines, Invocations: invocations,
			Shards: n, Telemetry: wt,
		})
		if err == nil && len(out) > 0 && r.Fingerprint != out[0].Fingerprint {
			err = fmt.Errorf("diverged:\n  got  %s\n  want %s", r.Fingerprint, out[0].Fingerprint)
		}
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", n, err)
		}
		r.Telemetry = wt
		r.Rounds = wt.Rounds()
		r.EventsPerRound = float64(wt.Events()) / float64(r.Rounds)
		out = append(out, r)
	}
	return out, nil
}

// ShardSoakTable renders a sweep as a report table.
func ShardSoakTable(results []ShardSoakResult) *metrics.Table {
	t := &metrics.Table{
		Title: "Sharded kernel soak — windowed rounds vs shard count",
		Note: fmt.Sprintf("%d machines x %d invocations, identical fingerprint at every point",
			results[0].Machines, results[0].Invocations),
		Header: []string{"shards", "events", "rounds", "events/round"},
	}
	for _, r := range results {
		t.AddRow(
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%d", r.Rounds),
			fmt.Sprintf("%.1f", r.EventsPerRound),
		)
	}
	return t
}
