package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// seriesSpec is one arrival series of the AtSeries property test, drawn
// before the run so both scheduling modes replay the same scenario: member
// i is due offs[i] after the series starts (offsets do not decrease and may
// be negative, so early members clamp to now), and its callback may send a
// cross-domain message or spawn a sleeper.
type seriesSpec struct {
	offs  []Duration
	send  []int // destination domain of a Send made by the member, or -1
	delay []Duration
	spawn []Duration // sleep of a process the member spawns, or -1
}

// procSpec is one process: it sleeps through sleeps, sending to send[k]
// after sleep k (-1: no send), and starts series `starts` after its first
// sleep when starts >= 0.
type procSpec struct {
	sleeps []Duration
	send   []int
	delay  []Duration
	starts int
}

type domainSpec struct {
	series []seriesSpec // series[0] starts before Run; the rest from procs
	procs  []procSpec
}

// seriesGrid is the time quantum of the scenario: every time is a small
// multiple of it, so series members, sleepers and messages collide.
const seriesGrid = Duration(time.Microsecond)

func drawSeriesScenario(rng *rand.Rand, domains int, lookahead Duration) []domainSpec {
	g := func(k int) Duration { return Duration(k) * seriesGrid }
	dest := func() (int, Duration) {
		if domains == 1 || rng.Intn(3) != 0 {
			return -1, 0
		}
		return rng.Intn(domains), lookahead + g(rng.Intn(3))
	}
	specs := make([]domainSpec, domains)
	for d := range specs {
		nseries := 1 + rng.Intn(3)
		for s := 0; s < nseries; s++ {
			n := rng.Intn(12)
			sp := seriesSpec{}
			off := g(rng.Intn(5) - 2)
			for i := 0; i < n; i++ {
				off += g(rng.Intn(3)) // 0: a same-instant tie inside the series
				to, dl := dest()
				sl := Duration(-1)
				if rng.Intn(3) == 0 {
					sl = g(rng.Intn(3))
				}
				sp.offs = append(sp.offs, off)
				sp.send = append(sp.send, to)
				sp.delay = append(sp.delay, dl)
				sp.spawn = append(sp.spawn, sl)
			}
			specs[d].series = append(specs[d].series, sp)
		}
		for k := 0; k < 3; k++ {
			ps := procSpec{starts: -1}
			if k+1 < nseries {
				ps.starts = k + 1
			}
			for j := rng.Intn(8); j >= 0; j-- {
				to, dl := dest()
				ps.sleeps = append(ps.sleeps, g(rng.Intn(4)))
				ps.send = append(ps.send, to)
				ps.delay = append(ps.delay, dl)
			}
			specs[d].procs = append(specs[d].procs, ps)
		}
	}
	return specs
}

// runSeriesScenario runs specs on a group of len(specs) domains (windowed
// when lookahead > 0, else the classic loop on its one domain) and
// returns the merged log: every callback's domain, label, virtual time and
// Scheduled() at the instant it ran. With useSeries each series is one
// AtSeries; otherwise n At calls made at the same moment. It fails t if any
// at is called other than once per member.
func runSeriesScenario(t *testing.T, specs []domainSpec, lookahead Duration, useSeries bool) string {
	t.Helper()
	sh := NewSharded(len(specs))
	sh.LimitLookahead(lookahead)
	sh.EnableTrace()
	calls := make(map[string]int)
	var start func(e *Env, d, s int)
	note := func(e *Env, format string, args ...any) {
		e.Tracef("%s sched=%d", fmt.Sprintf(format, args...), e.Scheduled())
	}
	send := func(e *Env, to int, delay Duration, label string) {
		if to < 0 {
			return
		}
		sh.Send(e, to, delay, func() { note(sh.Domain(to), "recv %s", label) })
	}
	start = func(e *Env, d, s int) {
		sp := specs[d].series[s]
		base := e.Now()
		at := func(i int) Time {
			calls[fmt.Sprintf("d%d/s%d/%d", d, s, i)]++
			return base.After(sp.offs[i])
		}
		fn := func(i int) {
			label := fmt.Sprintf("d%d/s%d/%d", d, s, i)
			note(e, "series %s", label)
			send(e, sp.send[i], sp.delay[i], label)
			if sl := sp.spawn[i]; sl >= 0 {
				e.Spawn("child-"+label, func(p *Proc) {
					p.Sleep(sl)
					note(e, "child %s", label)
				})
			}
		}
		if useSeries {
			e.AtSeries(len(sp.offs), at, fn)
			return
		}
		for i := range sp.offs {
			i := i
			e.At(at(i), func() { fn(i) })
		}
	}
	for d := range specs {
		e := sh.Domain(d)
		start(e, d, 0)
		for k, ps := range specs[d].procs {
			d, k, ps := d, k, ps
			e.Spawn(fmt.Sprintf("p%d.%d", d, k), func(p *Proc) {
				for j, sl := range ps.sleeps {
					p.Sleep(sl)
					note(e, "proc %d.%d step %d", d, k, j)
					send(e, ps.send[j], ps.delay[j], fmt.Sprintf("p%d.%d/%d", d, k, j))
					if j == 0 && ps.starts >= 0 {
						start(e, d, ps.starts)
					}
				}
			})
		}
	}
	var end Time
	if lookahead > 0 {
		end = sh.Run()
	} else {
		end = sh.Domain(0).Run()
	}
	for d := range specs {
		for s, sp := range specs[d].series {
			for i := range sp.offs {
				key := fmt.Sprintf("d%d/s%d/%d", d, s, i)
				if calls[key] != 1 {
					t.Errorf("at(%s) called %d times, want 1", key, calls[key])
				}
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "end=%v scheduled=%d live=%d\n", end, sh.Scheduled(), sh.LiveProcs())
	for _, ev := range sh.TraceLog() {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestAtSeriesMatchesAt is the exactness property of AtSeries: random
// nondecreasing series, interleaved with sleepers, spawned processes and
// cross-domain sends at colliding instants, must run exactly as the same
// series made of n At calls — the same callbacks at the same times, the
// same Scheduled() at every firing, and the same merge order of
// cross-domain messages — on the classic loop and the windowed driver.
func TestAtSeriesMatchesAt(t *testing.T) {
	const la = 3 * seriesGrid
	kernels := []struct {
		name      string
		domains   int
		lookahead Duration
	}{
		{"classic", 1, 0},
		{"windowed-1", 1, la},
		{"windowed-3", 3, la},
	}
	for _, k := range kernels {
		for seed := int64(1); seed <= 40; seed++ {
			specs := drawSeriesScenario(rand.New(rand.NewSource(seed)), k.domains, k.lookahead)
			want := runSeriesScenario(t, specs, k.lookahead, false)
			got := runSeriesScenario(t, specs, k.lookahead, true)
			if got != want {
				t.Fatalf("%s seed %d: AtSeries diverged from At\n--- At ---\n%s--- AtSeries ---\n%s", k.name, seed, want, got)
			}
		}
	}
}

// TestAtSeriesQueuesOneEvent: a series holds one queued event however long
// it is, yet reserves all of its sequence numbers up front.
func TestAtSeriesQueuesOneEvent(t *testing.T) {
	env := NewEnv()
	var fired []int
	env.AtSeries(1000, func(i int) Time { return Time(i / 10) }, func(i int) { fired = append(fired, i) })
	if env.Pending() != 1 || env.Scheduled() != 1000 {
		t.Fatalf("after AtSeries(1000): pending %d scheduled %d, want 1 and 1000", env.Pending(), env.Scheduled())
	}
	env.Run()
	if len(fired) != 1000 || fired[0] != 0 || fired[999] != 999 {
		t.Fatalf("fired %d members (first %v), want 0..999 in order", len(fired), fired[:min(len(fired), 3)])
	}
}

// TestAtSeriesEmpty: n == 0 calls neither at nor fn and schedules nothing.
func TestAtSeriesEmpty(t *testing.T) {
	env := NewEnv()
	called := false
	env.AtSeries(0, func(int) Time { called = true; return 0 }, func(int) { called = true })
	env.Run()
	if called || env.Scheduled() != 0 || env.Pending() != 0 {
		t.Fatalf("empty series: called %v scheduled %d pending %d", called, env.Scheduled(), env.Pending())
	}
}

// TestAtSeriesDecreasingPanics: a member due before its predecessor panics
// when it is drawn, which is while the predecessor fires.
func TestAtSeriesDecreasingPanics(t *testing.T) {
	env := NewEnv()
	times := []Time{0, 5, 3}
	var fired []int
	env.AtSeries(len(times), func(i int) Time { return times[i] }, func(i int) { fired = append(fired, i) })
	r := recoverRun(func() { env.Run() })
	if s, ok := r.(string); !ok || !strings.Contains(s, "decrease") {
		t.Fatalf("Run recovered %v, want the AtSeries decreasing-times panic", r)
	}
	if len(fired) != 1 {
		t.Fatalf("members fired before the panic = %v, want [0]", fired)
	}
}
