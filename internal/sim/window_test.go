package sim

import (
	"fmt"
	"strings"
	"testing"
)

// recordingWindowObserver copies every WindowStats callback into a rendered
// log — sim cannot import obs (layering), so the kernel-side contract is
// pinned with this minimal in-package observer.
type recordingWindowObserver struct {
	rounds int
	events int
	log    strings.Builder
}

func (r *recordingWindowObserver) WindowRound(ws WindowStats) {
	r.rounds++
	for _, n := range ws.Events {
		r.events += n
	}
	// Render immediately: the Events/Flow buffers are reused next round.
	fmt.Fprintf(&r.log, "round=%d h=%d bound=%d delivered=%d events=%v flow=%v\n",
		ws.Round, ws.Horizon, ws.Bound, ws.Delivered, ws.Events, ws.Flow)
}

// runCoupledObserved is runCoupledSharded with a window observer attached.
func runCoupledObserved(domains int) (coupledRun, *recordingWindowObserver) {
	rec := &recordingWindowObserver{}
	return runCoupledSharded(domains, func(sh *Sharded) { sh.SetWindowObserver(rec) }), rec
}

// TestWindowTelemetryDeterministic pins the telemetry half of the
// determinism contract. The full per-round log — horizons, bounds,
// per-domain event counts, delivery counts, flow matrices — is byte-
// identical on a repeat run. Each round's window position and delivery
// count is the same at every domain count, since barriers see the same
// pending event times however the machines are partitioned.
func TestWindowTelemetryDeterministic(t *testing.T) {
	const domains = 3
	base, baseRec := runCoupledObserved(domains)
	if baseRec.rounds == 0 {
		t.Fatal("windowed run reported no rounds")
	}
	again, rec := runCoupledObserved(domains)
	if again.fp != base.fp {
		t.Fatalf("repeat run: fingerprint diverged\n got  %s\n want %s", again.fp, base.fp)
	}
	if rec.log.String() != baseRec.log.String() {
		t.Fatalf("repeat run: telemetry log diverged\n got:\n%s\nwant:\n%s", rec.log.String(), baseRec.log.String())
	}
	windows := func(rec *recordingWindowObserver) string {
		var b strings.Builder
		for _, line := range strings.Split(rec.log.String(), "\n") {
			if i := strings.Index(line, " events="); i >= 0 {
				line = line[:i]
			}
			b.WriteString(line + "\n")
		}
		return b.String()
	}
	for _, d := range []int{1, 2, 6} {
		_, rec := runCoupledObserved(d)
		if got, want := windows(rec), windows(baseRec); got != want {
			t.Fatalf("domains=%d: window positions diverged from domains=%d\n got:\n%s\nwant:\n%s", d, domains, got, want)
		}
	}
}

// TestWindowObserverInvisible pins zero observable cost: attaching the
// observer must not change the simulation — fingerprint, trace, and event
// totals all match the unobserved run — and every fired event must be
// accounted to exactly one window.
func TestWindowObserverInvisible(t *testing.T) {
	const domains = 3
	plain := runCoupledSharded(domains)
	observed, rec := runCoupledObserved(domains)
	if observed.fp != plain.fp {
		t.Fatalf("observer changed the fingerprint\n got  %s\n want %s", observed.fp, plain.fp)
	}
	if observed.trace != plain.trace {
		t.Fatal("observer changed the trace log")
	}
	if int64(rec.events) != observed.sched {
		t.Fatalf("window event counts sum to %d, scheduled %d — events escaped the windows",
			rec.events, observed.sched)
	}
}

// TestWindowObserverDetach: SetWindowObserver(nil) stops callbacks; the
// buffers stay allocated for a later re-attach.
func TestWindowObserverDetach(t *testing.T) {
	sh := NewSharded(2)
	sh.LimitLookahead(cLA)
	rec := &recordingWindowObserver{}
	sh.SetWindowObserver(rec)
	sh.SetWindowObserver(nil)
	var st coupledState
	for m := 0; m < cm; m++ {
		m := m
		dom := sh.Domain(m % 2)
		send := func(p *Proc, k int, delay Duration, fn func()) {
			sh.Send(p.Env(), k%2, delay, fn)
		}
		dom.Spawn(fmt.Sprintf("machine-%d", m), coupledBody(&st, m, send))
	}
	sh.Run()
	if rec.rounds != 0 {
		t.Fatalf("detached observer received %d rounds", rec.rounds)
	}
}
