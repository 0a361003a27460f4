package molecule

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/obs/attrib"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// chaosSummary is everything the soak observed, rendered to a single string
// so two runs with the same seed can be compared bit-for-bit.
type chaosSummary struct {
	submitted  int
	succeeded  int
	failed     int
	billed     int
	retries    int64
	failovers  int64
	timeouts   int64
	evictions  int64
	injected   int64
	finalClock sim.Time
}

func (s chaosSummary) String() string {
	return fmt.Sprintf("submitted=%d succeeded=%d failed=%d billed=%d retries=%d failovers=%d timeouts=%d evictions=%d injected=%d clock=%d",
		s.submitted, s.succeeded, s.failed, s.billed, s.retries, s.failovers,
		s.timeouts, s.evictions, s.injected, s.finalClock)
}

// runChaos drives a fixed workload against a host + 2 DPU machine while a
// seeded chaos controller crashes and revives DPUs and the fault plan
// injects probabilistic sandbox-create and handler failures. It returns the
// run's observed summary after asserting the core recovery invariants.
func runChaos(t *testing.T, seed uint64) chaosSummary {
	t.Helper()
	const (
		workers       = 8
		invokesPerWkr = 25
		chaosCycles   = 6
	)
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 2})
	reg := workloads.NewRegistry()
	opts := DefaultOptions()
	opts.Recovery = RecoveryOptions{
		InvokeTimeout: 2 * time.Second,
		MaxRetries:    6,
		RetryBackoff:  2 * time.Millisecond,
	}
	var sum chaosSummary
	var rt *Runtime
	var o *obs.Observer
	// settled records, per settle instant, the Result.Total of every
	// successful invoke — the caller-visible latencies the attribution pass
	// must reproduce from the span tree alone.
	settled := make(map[sim.Time][]time.Duration)
	env.Spawn("chaos-driver", func(p *sim.Proc) {
		var err error
		rt, err = New(p, m, reg, opts)
		if err != nil {
			t.Fatal(err)
		}
		o = obs.New(env)
		rt.SetObserver(o)
		pl := faults.NewPlan(env, seed)
		pl.CreateFailProb = 0.03
		pl.HandlerFailProb = 0.03
		rt.AttachFaults(pl)
		if err := rt.Deploy(p, "pyaes", DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		dpus := rt.Machine.PUsOfKind(hw.DPU)
		targets := []hw.PUID{-1, -1, dpus[0].ID, dpus[1].ID}

		// Chaos controller: kill a random DPU, let the system limp, revive
		// it, breathe, repeat. Everything is up again by the end.
		ctl := rand.New(rand.NewSource(int64(seed)))
		env.Spawn("chaos-ctl", func(cp *sim.Proc) {
			for i := 0; i < chaosCycles; i++ {
				victim := dpus[ctl.Intn(len(dpus))].ID
				pl.Kill(victim)
				cp.Tracef("chaos: killed PU %d", victim)
				cp.Sleep(time.Duration(130+ctl.Intn(60)) * time.Millisecond)
				pl.Revive(victim)
				cp.Tracef("chaos: revived PU %d", victim)
				cp.Sleep(time.Duration(10+ctl.Intn(15)) * time.Millisecond)
			}
		})

		wg := sim.NewWaitGroup(env)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			wrng := rand.New(rand.NewSource(int64(seed)*1000 + int64(w)))
			env.Spawn(fmt.Sprintf("worker-%d", w), func(wp *sim.Proc) {
				defer wg.Done()
				for i := 0; i < invokesPerWkr; i++ {
					wp.Sleep(time.Duration(wrng.Intn(4000)) * time.Microsecond)
					pin := targets[wrng.Intn(len(targets))]
					sum.submitted++
					if res, err := rt.Invoke(wp, "pyaes", InvokeOptions{PU: pin}); err != nil {
						sum.failed++
					} else {
						sum.succeeded++
						settled[wp.Now()] = append(settled[wp.Now()], res.Total)
					}
				}
			})
		}
		wg.Wait(p)
	})
	env.Run()
	if got := env.BlockedProcs(); len(got) != 0 {
		t.Fatalf("chaos run leaked %d blocked processes: %v", len(got), got)
	}

	sum.billed = rt.Billing().Count()
	lbl := obs.L("fn", "pyaes")
	sum.retries = o.Counter("molecule_invoke_retries_total", lbl).Value()
	sum.failovers = o.Counter("molecule_failovers_total", lbl).Value()
	sum.timeouts = o.Counter("molecule_invoke_timeouts_total", lbl).Value()
	for _, pu := range m.PUsOfKind(hw.DPU) {
		sum.evictions += o.Counter("molecule_crash_evictions_total", puLabel(pu.ID), lbl).Value()
	}
	for _, kind := range []string{"pu_crash", "transfer_pu_down", "partition", "link_inflate", "sandbox_create", "fork", "handler"} {
		sum.injected += o.Counter("faults_injected_total", obs.L("kind", kind)).Value()
	}
	sum.finalClock = env.Now()

	// Invariant 1: no invocation lost — every submitted invoke resolved.
	if sum.submitted != workers*invokesPerWkr {
		t.Errorf("submitted = %d, want %d", sum.submitted, workers*invokesPerWkr)
	}
	if sum.succeeded+sum.failed != sum.submitted {
		t.Errorf("lost invocations: %d submitted, %d resolved",
			sum.submitted, sum.succeeded+sum.failed)
	}
	// Invariant 2: no double billing — exactly one ledger entry per success,
	// none for failures or abandoned timed-out attempts.
	if sum.billed != sum.succeeded {
		t.Errorf("billing entries = %d, want %d (one per success)", sum.billed, sum.succeeded)
	}
	// Sanity: the chaos actually exercised the recovery machinery.
	if sum.retries == 0 {
		t.Error("soak produced no retries — faults not reaching the recovery path")
	}
	if sum.injected == 0 {
		t.Error("soak injected no faults")
	}

	// Invariant 3: attribution exactness. Every settled invocation's stage
	// decomposition must sum to its root span duration to the nanosecond —
	// including invocations whose abandoned timed-out attempts kept running
	// in the background, overlapping the backoff and retry spans that
	// followed — and the winning attempt's duration must be exactly the
	// Result.Total the caller saw.
	an := attrib.Analyze(o.Tracer.Spans(), attrib.Options{
		PUKind: func(pu int) string {
			if u := m.PU(hw.PUID(pu)); u != nil {
				return u.Kind.String()
			}
			return ""
		},
	})
	if got := len(an.Invocations); got != sum.submitted {
		t.Errorf("attributed %d invocations, want %d", got, sum.submitted)
	}
	var attribErrs int
	var backoffTime time.Duration
	for i := range an.Invocations {
		inv := &an.Invocations[i]
		if r := inv.Residue(); r != 0 {
			t.Errorf("invocation %d (%s): residue %v — total %v vs stage sum %v",
				inv.Root.ID, inv.Fn, r, inv.Total, inv.Stages.Sum())
		}
		if other := inv.Stages.Get(attrib.StageOther); other != 0 {
			t.Errorf("invocation %d: %v charged to %q — unclassified span in the tree",
				inv.Root.ID, other, attrib.StageOther)
		}
		backoffTime += inv.Stages.Get(attrib.StageRetryBackoff)
		if inv.Err {
			attribErrs++
			continue
		}
		winDur := time.Duration(inv.Win.End.Sub(inv.Win.Start))
		matched := false
		list := settled[inv.Root.End]
		for j, d := range list {
			if d == winDur {
				settled[inv.Root.End] = append(list[:j], list[j+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("invocation %d: winning-attempt duration %v matches no Result.Total settled at t=%d",
				inv.Root.ID, winDur, inv.Root.End)
		}
	}
	if attribErrs != sum.failed {
		t.Errorf("attribution saw %d errored invocations, summary says %d failed", attribErrs, sum.failed)
	}
	for at, rest := range settled {
		if len(rest) > 0 {
			t.Errorf("%d settled Result.Totals at t=%d never matched a winning attempt", len(rest), at)
		}
	}
	if sum.retries > 0 && backoffTime == 0 {
		t.Error("retries occurred but no invocation shows retry.backoff time")
	}
	return sum
}

// TestChaosSoak is the seeded kill/revive soak: under PU crashes and
// probabilistic create/handler failures, no invocation is lost and no
// invocation is double-billed, and the whole run is bit-for-bit reproducible
// from its seed.
func TestChaosSoak(t *testing.T) {
	first := runChaos(t, 42)
	if t.Failed() {
		t.Fatalf("invariants violated: %s", first)
	}
	t.Logf("chaos soak: %s", first)
	second := runChaos(t, 42)
	if first != second {
		t.Errorf("same seed diverged:\n  run 1: %s\n  run 2: %s", first, second)
	}
	other := runChaos(t, 7)
	if other == first {
		t.Error("different seeds produced identical runs — chaos not actually seeded")
	}
}
