package sim

import (
	"cmp"
	"slices"
	"sort"
)

// Sharded partitions a simulation into domains — one Env per simulated
// machine (or other isolation unit) — and drives them with conservative
// (Chandy–Misra–Bryant-style) synchronization. Each domain keeps its own
// small event heap, which is where sharding's speedup comes from; the driver
// runs every domain on the goroutine that called Run.
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
// window closes. Each domain therefore runs its whole window before the next
// domain starts, without looking at the others. At the barrier between
// rounds, pending cross-domain messages are merged in deterministic (arrival
// time, source domain, source sequence) order and enqueued on their
// destination heaps before any event at or beyond the old bound fires.
//
// # Determinism
//
// Within a domain, events fire in (time, sequence) order exactly as in a
// standalone Env. Across domains, the only interaction points are the
// barriers, whose delivery order is a pure function of virtual time. A
// workload whose domains never act at the same instant therefore runs the
// same events in the same order at every domain count (the shard-count
// invariance tests pin this), and a single-domain group runs exactly the
// events of Env.Run.
//
// Every group needs a lookahead (LimitLookahead): Run panics without one.
// In the Molecule stack hw.NewInterconnect sets it, and rejects a link with
// no base latency.
type Sharded struct {
	doms      []*Env
	lookahead Duration
	outbox    [][]crossMsg // per source domain, drained at each barrier
	merge     []crossMsg   // barrier scratch buffer, reused between rounds
	winEvents []int        // per-domain events fired in the current window

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
// what keeps windows independent — and violating it panics rather than
// silently reordering events. Messages are held in a per-domain outbox and
// delivered at the next barrier in deterministic (arrival time, source
// domain, source sequence) order.
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
// contents — the same on every run — but it is not send order.
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
		if len(d.events) == 0 {
			continue
		}
		if t := d.events.peek().t; !found || t < h {
			h, found = t, true
		}
	}
	return h, found
}

// Run drives every domain with the conservative windowed driver until all
// heaps and outboxes drain, and returns the maximum final virtual time
// across domains. It panics if the group has no lookahead. Every domain
// runs on the calling goroutine, so a panic or runtime.Goexit in a process
// body reaches the caller of Run, as with Env.Run.
func (sh *Sharded) Run() Time {
	if sh.lookahead == 0 {
		panic("sim: sharded group needs a lookahead (LimitLookahead)")
	}
	defer func() {
		for _, d := range sh.doms {
			d.stopIdle()
		}
	}()
	sh.runWindows()
	var end Time
	for _, d := range sh.doms {
		if d.now > end {
			end = d.now
		}
	}
	return end
}

// runWindows is the conservative windowed driver: rounds of
// deliver → horizon → windows, until quiescence. A round runs each domain's
// window in turn, in domain order.
func (sh *Sharded) runWindows() {
	la := Time(sh.lookahead)
	for {
		delivered := sh.deliver()
		h, ok := sh.horizon()
		if !ok {
			return
		}
		bound := h + la
		for i, d := range sh.doms {
			sh.winEvents[i] = d.window(bound)
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

// HostCost reports the kernel's host-side work summed over all domains; see
// Env.HostCost.
func (sh *Sharded) HostCost() HostCost {
	var c HostCost
	for _, d := range sh.doms {
		c = c.Add(d.cost)
	}
	return c
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
