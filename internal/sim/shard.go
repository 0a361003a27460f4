package sim

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Sharded partitions a simulation into domains — one Env per simulated
// machine (or other isolation unit) — and drives them with conservative
// (Chandy–Misra–Bryant-style) synchronization so independent domains execute
// on real OS threads in parallel while the observable execution stays
// byte-identical at every worker count.
//
// # Model
//
// Each domain is a complete Env: its own event heap, virtual clock, sequence
// counter, event pool, and process set. Processes spawned in a domain may
// only touch that domain's Env and state; the sole cross-domain edge is
// Send, which schedules a callback on another domain after a delay. Delays
// are bounded below by the group's lookahead — in the Molecule stack the
// lookahead is the base latency of the hw.Link connecting two machines, so
// any cross-machine message already pays at least that much virtual time in
// flight (see hw.NewInterconnect).
//
// # Synchronization
//
// The driver executes rounds. Each round computes the global horizon h (the
// minimum next-event time over all domains) and opens the window [h, h+L)
// where L is the lookahead. Every event inside the window is causally
// independent of every event in any other domain's window: a cross-domain
// message generated at time t >= h arrives at t+L >= h+L, strictly after the
// window closes. Domains therefore execute their windows concurrently with
// no locks on the hot path. At the barrier between rounds, pending
// cross-domain messages are merged in deterministic (arrival time, source
// domain, source sequence) order and enqueued on their destination heaps
// before any event at or beyond the old bound fires.
//
// # Determinism
//
// Within a domain, events fire in (time, sequence) order exactly as in a
// standalone Env. Across domains, the only interaction points are the
// barriers, whose delivery order is a pure function of virtual time — never
// of wall-clock interleaving — so a run with 1 worker and a run with N
// workers execute the same events in the same per-domain order and produce
// identical traces, clocks, and counters. A group with a single domain and
// no lookahead short-circuits to Env.Run, the classic single-heap loop —
// bit-for-bit the pre-sharding kernel.
//
// If no lookahead is configured (Lookahead() == 0), a multi-domain group
// falls back to a sequential deterministic merge: one event at a time,
// globally ordered by (time, domain), with the Sleep fast path disabled so a
// zero-delay cross-domain message can never be overtaken. This mode is
// always safe, never parallel.
type Sharded struct {
	doms      []*Env
	lookahead Duration
	outbox    [][]crossMsg // per source domain; owned by that domain's thread
	merge     []crossMsg   // barrier scratch buffer, reused between rounds
	winEvents []int        // per-domain events fired in the current window
	split     int          // events a round must fire for the next to go to workers; splitMin outside tests

	// Window telemetry (SetWindowObserver). Nil/zero when detached; the
	// windowed driver then pays one nil check per round.
	winObs   WindowObserver
	winFlow  []int64 // D×D src→dst messages delivered at the last barrier
	winRound int64
}

// crossMsg is one cross-domain message parked in a source domain's outbox
// until the next barrier.
type crossMsg struct {
	at     Time  // arrival time on the destination domain
	src    int   // source domain
	srcSeq int64 // source domain's sequence counter at send time
	to     int   // destination domain
	fn     func()
}

// NewSharded returns a group of n independent domains (n >= 1) at time 0.
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	sh := &Sharded{
		doms:      make([]*Env, n),
		outbox:    make([][]crossMsg, n),
		winEvents: make([]int, n),
		split:     splitMin,
	}
	for i := range sh.doms {
		e := NewEnv()
		e.group = sh
		e.domain = i
		sh.doms[i] = e
	}
	return sh
}

// Domains returns the number of domains in the group.
func (sh *Sharded) Domains() int { return len(sh.doms) }

// Domain returns the Env of domain i.
func (sh *Sharded) Domain(i int) *Env { return sh.doms[i] }

// LimitLookahead declares that every cross-domain delay is at least d,
// keeping the smallest bound declared so far. Larger lookahead means larger
// windows and fewer barriers; correctness requires only that no Send ever
// uses a delay below it, which Send enforces.
func (sh *Sharded) LimitLookahead(d Duration) {
	if d <= 0 {
		return
	}
	if sh.lookahead == 0 || d < sh.lookahead {
		sh.lookahead = d
	}
}

// Lookahead returns the configured lookahead (0 = unset).
func (sh *Sharded) Lookahead() Duration { return sh.lookahead }

// Send schedules fn to run in scheduler context of domain `to` at the
// sending domain's current time plus delay. It must be called from within
// domain `from` (one of its processes or scheduler callbacks). With a
// configured lookahead, delay must be at least the lookahead — that bound is
// what lets windows run in parallel — and violating it panics rather than
// silently racing. Messages are held in a per-domain outbox and delivered at
// the next barrier in deterministic (arrival time, source domain, source
// sequence) order.
func (sh *Sharded) Send(from *Env, to int, delay Duration, fn func()) {
	if from.group != sh {
		panic("sim: Send from an Env outside this sharded group")
	}
	if to < 0 || to >= len(sh.doms) {
		panic("sim: Send to out-of-range domain")
	}
	if sh.lookahead > 0 && delay < sh.lookahead {
		panic("sim: cross-domain send below the declared lookahead")
	}
	if delay < 0 {
		delay = 0
	}
	src := from.domain
	sh.outbox[src] = append(sh.outbox[src], crossMsg{
		at:     from.now.After(delay),
		src:    src,
		srcSeq: from.seq,
		to:     to,
		fn:     fn,
	})
}

// deliver drains every outbox, sorts the pending messages by (arrival time,
// source domain, source sequence) and enqueues them on their destination
// heaps. Runs only between windows, single-threaded. Returns the number of
// messages delivered.
//
// The key is not unique: srcSeq is the source's schedule counter, so every
// Send made by one event shares it, and the unstable sort may reorder such
// same-instant messages. The order is still a pure function of the outbox
// contents — the same at every worker count — but it is not send order.
func (sh *Sharded) deliver() int {
	msgs := sh.merge[:0]
	for i := range sh.outbox {
		msgs = append(msgs, sh.outbox[i]...)
		sh.outbox[i] = sh.outbox[i][:0]
	}
	if len(msgs) == 0 {
		sh.merge = msgs
		return 0
	}
	slices.SortFunc(msgs, func(a, b crossMsg) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.srcSeq, b.srcSeq)
	})
	n := len(msgs)
	d := len(sh.doms)
	for _, m := range msgs {
		sh.doms[m.to].schedule(m.at, m.fn)
		if sh.winFlow != nil && sh.winObs != nil {
			sh.winFlow[m.src*d+m.to]++
		}
	}
	for i := range msgs {
		msgs[i].fn = nil
	}
	sh.merge = msgs[:0]
	return n
}

// horizon returns the minimum next-event time across all domains and whether
// any domain has a queued event.
func (sh *Sharded) horizon() (Time, bool) {
	var h Time
	found := false
	for _, d := range sh.doms {
		if t, ok := d.nextEventTime(); ok && (!found || t < h) {
			h, found = t, true
		}
	}
	return h, found
}

// anyStopped reports whether any domain called Stop.
func (sh *Sharded) anyStopped() bool {
	for _, d := range sh.doms {
		if d.stopped {
			return true
		}
	}
	return false
}

// Run drives every domain until all heaps and outboxes drain (or a domain
// calls Stop), using up to `workers` OS threads for the parallel windows
// (workers <= 0 means GOMAXPROCS; the count is capped at the number of
// domains). It returns the maximum final virtual time across domains.
//
// The execution mode depends only on the group's structure, never on the
// worker count, so `workers` is purely a performance knob:
//
//   - lookahead configured: the conservative windowed driver, at any domain
//     count (a single-domain group still runs in windows, which exercises
//     the same machinery and is provably equivalent to the classic loop);
//   - no lookahead, one domain: exactly Env.Run, the classic loop;
//   - no lookahead, several domains: the sequential deterministic merge.
//
// The execution — per-domain event order, traces, clocks, counters — is
// identical for every workers value: parallelism changes wall-clock time
// only. Even with several workers, a windowed round runs inline on the
// calling goroutine unless the round before it fired at least splitMin
// events: dispatching a small round to workers costs more than it saves.
// Windows are mutually independent, so which goroutine runs a domain's
// window cannot change what it does. A panic or runtime.Goexit in a process
// body reaches the caller of Run at every workers value, as with Env.Run.
func (sh *Sharded) Run(workers int) Time {
	defer func() {
		for _, d := range sh.doms {
			d.stopIdle()
		}
	}()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sh.doms) {
		workers = len(sh.doms)
	}
	switch {
	case sh.lookahead > 0:
		sh.runWindows(workers)
	case len(sh.doms) == 1:
		sh.doms[0].Run()
		if len(sh.outbox[0]) > 0 {
			panic("sim: Send on a single-domain group requires a lookahead (LimitLookahead)")
		}
	default:
		sh.runMerge()
	}
	var end Time
	for _, d := range sh.doms {
		if d.now > end {
			end = d.now
		}
	}
	return end
}

// runWindows is the conservative windowed driver: rounds of
// deliver → horizon → windows, until quiescence. A round runs inline on the
// calling goroutine, one domain after another, unless workers > 1 and the
// previous round fired at least sh.split events; then runRound hands it to
// the worker pool. Starting goroutines and waiting for them costs more than
// a small round's events (EXPERIMENTS.md, BenchmarkShardedRound), and the
// event count is deterministic, so a run always takes the same sequence of
// inline and split rounds.
func (sh *Sharded) runWindows(workers int) {
	for _, d := range sh.doms {
		d.stopped = false
		d.limit = 0
	}
	la := Time(sh.lookahead)
	fired := 0 // events in the previous round
	for {
		delivered := sh.deliver()
		h, ok := sh.horizon()
		if !ok {
			return
		}
		bound := h + la
		if workers > 1 && fired >= sh.split {
			sh.runRound(bound, workers)
		} else {
			for i, d := range sh.doms {
				sh.winEvents[i] = d.window(bound)
			}
		}
		fired = 0
		for _, n := range sh.winEvents {
			fired += n
		}
		if sh.winObs != nil {
			sh.winRound++
			sh.winObs.WindowRound(WindowStats{
				Round:     sh.winRound,
				Horizon:   h,
				Bound:     bound,
				Delivered: delivered,
				Events:    sh.winEvents,
				Flow:      sh.winFlow,
			})
			for i := range sh.winFlow {
				sh.winFlow[i] = 0
			}
		}
		if sh.anyStopped() {
			return
		}
	}
}

// runRound executes one window on every domain using a pool of worker
// goroutines. Domains are claimed from an atomic counter; since windows are
// mutually independent, the claim order cannot influence the execution.
// Each worker writes its domain's event count to a distinct index of
// winEvents — no two workers share an element, so the writes are race-free
// and the counts are identical to the inline path's.
//
// A domain whose window panics or calls runtime.Goexit ends its worker; once
// every worker is done, the fault of the lowest such domain is re-raised on
// the calling goroutine — the one a single worker would have raised first.
func (sh *Sharded) runRound(bound Time, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fault *domainFault
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			i := -1
			returned := false
			defer func() {
				if returned {
					return
				}
				f := &domainFault{dom: i, val: recover()}
				mu.Lock()
				if fault == nil || f.dom < fault.dom {
					fault = f
				}
				mu.Unlock()
			}()
			for {
				i = int(next.Add(1)) - 1
				if i >= len(sh.doms) {
					returned = true
					return
				}
				sh.winEvents[i] = sh.doms[i].window(bound)
			}
		}()
	}
	wg.Wait()
	if fault != nil {
		if fault.val == nil {
			runtime.Goexit()
		}
		panic(fault.val)
	}
}

// domainFault is a panic (val) or runtime.Goexit (val == nil) that ended a
// domain's window on a worker goroutine.
type domainFault struct {
	dom int
	val any
}

// runMerge is the zero-lookahead fallback: a global deterministic merge that
// fires one event at a time from the domain with the earliest (time, domain)
// key, delivering outboxes before every pop so even zero-delay cross-domain
// messages order correctly. Sequential by construction.
func (sh *Sharded) runMerge() {
	for _, d := range sh.doms {
		d.stopped = false
		d.limit = 0
	}
	for {
		sh.deliver()
		best := -1
		var bt Time
		for i, d := range sh.doms {
			if t, ok := d.nextEventTime(); ok && (best < 0 || t < bt) {
				best, bt = i, t
			}
		}
		if best < 0 || sh.anyStopped() {
			return
		}
		sh.doms[best].fireNext()
	}
}

// Now returns the maximum current virtual time across domains.
func (sh *Sharded) Now() Time {
	var t Time
	for _, d := range sh.doms {
		if d.now > t {
			t = d.now
		}
	}
	return t
}

// Clocks returns each domain's current virtual time, indexed by domain.
func (sh *Sharded) Clocks() []Time {
	out := make([]Time, len(sh.doms))
	for i, d := range sh.doms {
		out[i] = d.now
	}
	return out
}

// Pending reports the total number of queued events across domains,
// including undelivered cross-domain messages.
func (sh *Sharded) Pending() int {
	n := 0
	for i, d := range sh.doms {
		n += d.Pending() + len(sh.outbox[i])
	}
	return n
}

// LiveProcs reports the number of live processes across all domains.
func (sh *Sharded) LiveProcs() int {
	n := 0
	for _, d := range sh.doms {
		n += d.LiveProcs()
	}
	return n
}

// Scheduled reports the total events sequenced across all domains; see
// Env.Scheduled.
func (sh *Sharded) Scheduled() int64 {
	var n int64
	for _, d := range sh.doms {
		n += d.seq
	}
	return n
}

// BlockedProcs returns the names of blocked processes across all domains,
// sorted lexicographically (the same documented guarantee as
// Env.BlockedProcs, so output is identical at every shard count).
func (sh *Sharded) BlockedProcs() []string {
	var out []string
	for _, d := range sh.doms {
		out = append(out, d.BlockedProcs()...)
	}
	sort.Strings(out)
	return out
}

// EnableTrace starts trace recording on every domain.
func (sh *Sharded) EnableTrace() {
	for _, d := range sh.doms {
		d.EnableTrace()
	}
}

// TraceLog returns the merged trace across domains: entries are ordered by
// virtual time, with ties broken by domain index and, within a domain, by
// emission order. The merge is a pure function of the per-domain logs, so it
// is identical at every worker count. Workloads that need the merged log to
// also be identical across different domain partitions should keep
// same-instant events on distinct domains disjoint in time (the sharded soak
// stamps each machine a distinct time residue for exactly this reason).
func (sh *Sharded) TraceLog() []TraceEvent {
	if len(sh.doms) == 1 {
		return sh.doms[0].TraceLog()
	}
	total := 0
	for _, d := range sh.doms {
		total += len(d.trace)
	}
	if total == 0 {
		return nil
	}
	out := make([]TraceEvent, 0, total)
	for _, d := range sh.doms {
		out = append(out, d.trace...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}
