package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ChaosDemo runs a seeded chaos soak — concurrent workers invoking under
// probabilistic sandbox/handler faults while a controller crashes and
// revives DPUs — and writes a human-readable report of the fault timeline,
// recovery counters, and invariant checks. The run is deterministic in its
// seed: identical seeds produce identical reports. It returns an error if a
// recovery invariant is violated (an invocation lost, or billed more than
// once). The regular experiments never attach a fault plan, so the golden
// report bytes are unaffected.
func ChaosDemo(w io.Writer, seed uint64) error {
	const (
		numWorkers    = 8
		invokesPerWkr = 25
		chaosCycles   = 6
	)
	var (
		submitted, succeeded, failed int
		events                       []string
		o                            *obs.Observer
		rt                           *molecule.Runtime
		demoErr                      error
	)
	msf := func(t sim.Time) float64 { return float64(t) / float64(time.Millisecond) }
	sandboxed(func(p *sim.Proc) {
		opts := molecule.DefaultOptions()
		opts.Recovery = molecule.RecoveryOptions{
			InvokeTimeout: 2 * time.Second,
			MaxRetries:    6,
			RetryBackoff:  2 * time.Millisecond,
		}
		rt = newMolecule(p, hw.Config{DPUs: 2}, opts)
		o = obs.New(p.Env())
		rt.SetObserver(o)
		pl := faults.NewPlan(p.Env(), seed)
		pl.CreateFailProb = 0.03
		pl.HandlerFailProb = 0.03
		rt.AttachFaults(pl)
		if demoErr = rt.Deploy(p, "pyaes",
			molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); demoErr != nil {
			return
		}
		dpus := rt.Machine.PUsOfKind(hw.DPU)
		targets := []hw.PUID{-1, -1, dpus[0].ID, dpus[1].ID}
		env := p.Env()

		ctl := rand.New(rand.NewSource(int64(seed)))
		env.Spawn("chaos-ctl", func(cp *sim.Proc) {
			for i := 0; i < chaosCycles; i++ {
				victim := dpus[ctl.Intn(len(dpus))].ID
				pl.Kill(victim)
				events = append(events, fmt.Sprintf("  %8.1f ms  kill   PU %d", msf(cp.Now()), victim))
				cp.Sleep(time.Duration(130+ctl.Intn(60)) * time.Millisecond)
				pl.Revive(victim)
				events = append(events, fmt.Sprintf("  %8.1f ms  revive PU %d", msf(cp.Now()), victim))
				cp.Sleep(time.Duration(10+ctl.Intn(15)) * time.Millisecond)
			}
		})

		wg := sim.NewWaitGroup(env)
		for wk := 0; wk < numWorkers; wk++ {
			wg.Add(1)
			wrng := rand.New(rand.NewSource(int64(seed)*1000 + int64(wk)))
			env.Spawn(fmt.Sprintf("worker-%d", wk), func(wp *sim.Proc) {
				defer wg.Done()
				for i := 0; i < invokesPerWkr; i++ {
					wp.Sleep(time.Duration(wrng.Intn(4000)) * time.Microsecond)
					pin := targets[wrng.Intn(len(targets))]
					submitted++
					if _, err := rt.Invoke(wp, "pyaes", molecule.InvokeOptions{PU: pin}); err != nil {
						failed++
					} else {
						succeeded++
					}
				}
			})
		}
		wg.Wait(p)
	})
	if demoErr != nil {
		return fmt.Errorf("bench: chaos demo: %w", demoErr)
	}

	lbl := obs.L("fn", "pyaes")
	billed := rt.Billing().Count()
	var evictions int64
	for _, pu := range rt.Machine.PUsOfKind(hw.DPU) {
		evictions += o.Counter("molecule_crash_evictions_total",
			obs.L("pu", strconv.Itoa(int(pu.ID))), lbl).Value()
	}
	var injected int64
	for _, kind := range []string{"pu_crash", "transfer_pu_down", "partition", "link_inflate", "sandbox_create", "fork", "handler"} {
		injected += o.Counter("faults_injected_total", obs.L("kind", kind)).Value()
	}

	fmt.Fprintf(w, "# chaos soak (seed %d)\n\n", seed)
	fmt.Fprintf(w, "machine: host CPU + 2 DPUs; %d workers x %d invokes of pyaes\n", numWorkers, invokesPerWkr)
	fmt.Fprintf(w, "faults:  create-fail=0.03 handler-fail=0.03 + seeded kill/revive schedule\n")
	fmt.Fprintf(w, "policy:  invoke-timeout=2s retries=6 backoff=2ms (doubling)\n\n")
	fmt.Fprintln(w, "fault timeline (virtual time):")
	for _, ev := range events {
		fmt.Fprintln(w, ev)
	}
	fmt.Fprintf(w, "\ninvocations: submitted=%d succeeded=%d failed=%d\n", submitted, succeeded, failed)
	fmt.Fprintf(w, "billing entries: %d\n", billed)
	fmt.Fprintf(w, "recovery: retries=%d failovers=%d timeouts=%d crash-evictions=%d faults-injected=%d\n",
		o.Counter("molecule_invoke_retries_total", lbl).Value(),
		o.Counter("molecule_failovers_total", lbl).Value(),
		o.Counter("molecule_invoke_timeouts_total", lbl).Value(),
		evictions, injected)

	if succeeded+failed != submitted {
		return fmt.Errorf("bench: chaos demo: INVARIANT VIOLATED: %d of %d invocations lost",
			submitted-succeeded-failed, submitted)
	}
	if billed != succeeded {
		return fmt.Errorf("bench: chaos demo: INVARIANT VIOLATED: %d billing entries for %d successes",
			billed, succeeded)
	}
	fmt.Fprintln(w, "invariants: no invocation lost; exactly one billing entry per success")
	return nil
}
