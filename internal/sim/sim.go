// Package sim implements a deterministic discrete-event simulation kernel.
//
// Every component of the Molecule reproduction — operating systems, XPU-Shim
// nodes, sandboxes, function instances — runs as a simulation process
// (a runtime coroutine driven by an Env) that blocks on simulated primitives
// (Sleep, channel operations, resources) instead of real time. Exactly one
// process runs at any instant: the scheduler resumes a process by switching
// to its coroutine (iter.Pull's next), and the process parks by yielding
// back, so control never passes through the Go scheduler and event ordering
// is deterministic: events fire in (time, sequence-number) order.
//
// The virtual clock is a Time in nanoseconds. A complete benchmark run that
// models minutes of system activity executes in milliseconds of wall time.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration re-exports time.Duration for virtual delays; virtual durations use
// the same unit (nanoseconds) as wall-clock durations for readability.
type Duration = time.Duration

// After returns the time d after t.
func (t Time) After(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return Duration(t).String() }

// event is a scheduled occurrence. At time t either fn runs in scheduler
// context (generic callbacks: At, AfterFunc) or, when fn is nil, the parked
// process p is resumed with msg. The dedicated resume form is the hot path —
// Sleep, channel wake-ups, and spawn starts all use it — and avoids
// allocating a fresh closure per schedule. Fired events are recycled through
// Env.free, so steady-state scheduling allocates nothing.
type event struct {
	t   Time
	seq int64
	fn  func() // generic callback; nil for resume events
	p   *Proc  // resume target when fn is nil
	msg resumeMsg
}

// eventHeap is a binary min-heap of events ordered by (t, seq). It is
// hand-written rather than built on container/heap so the hot push/pop paths
// neither box events into interfaces nor dispatch through Less/Swap. Since
// seq is unique per Env the order is total, so any correct heap pops events
// in the same order.
type eventHeap []*event

func evLess(a, b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

func (h eventHeap) peek() *event { return h[0] }

// pushEv inserts ev, sifting it up from the last slot.
//
//molecule:hotpath
func (h *eventHeap) pushEv(ev *event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(ev, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// popEv removes and returns the earliest event; the heap must not be empty.
// The last event takes the root's place and sifts down.
//
//molecule:hotpath
func (h *eventHeap) popEv() *event {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && evLess(s[r], s[c]) {
			c = r
		}
		if !evLess(s[c], last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, spawn processes with Spawn, and drive it with Run.
// Env methods must be called either before Run or from within a running
// process; Env is not safe for concurrent use from unrelated goroutines.
type Env struct {
	now     Time
	seq     int64
	events  eventHeap
	running *Proc // the process currently executing, if any
	nprocs  int   // live (spawned, not yet exited) processes
	stopped bool
	limit   Time // run-until horizon; 0 means none

	free []*event // recycled fired events, capped at maxFreeEvents
	idle []*coro  // coroutines whose body exited, for Spawn to reuse; capped at maxIdleCoros

	// Sharded-execution fields. A standalone Env (NewEnv) has group == nil
	// and domain 0; an Env created by NewSharded is one domain of a group.
	// windowBound is the exclusive virtual-time bound of the window the
	// domain is currently executing: 0 means unbounded (the classic
	// single-heap loop), a positive value caps the Sleep fast path so a
	// process cannot advance past a barrier at which cross-domain messages
	// are delivered, and fastPathOff disables the fast path entirely (the
	// zero-lookahead sequential merge, where a cross-domain message may
	// arrive at any time >= now).
	group       *Sharded
	domain      int
	windowBound Time

	tracing bool
	trace   []TraceEvent
	spawned []*Proc // procs visible to BlockedProcs; compacted as procs exit
	exited  int     // exited procs still occupying a spawned slot
}

// fastPathOff is the windowBound sentinel that disables the Sleep fast path.
const fastPathOff Time = -1

// maxFreeEvents caps the recycle pool; beyond this, fired events are left
// for the GC. The cap bounds kernel memory on runs with huge event bursts.
const maxFreeEvents = 1024

// maxIdleCoros caps the idle coroutine list the same way; beyond it, a
// coroutine whose body exits ends instead of waiting for the next Spawn.
const maxIdleCoros = 1024

// NewEnv returns an empty environment at time 0.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Domain returns the index of this Env within its sharded group (0 for a
// standalone Env).
func (e *Env) Domain() int { return e.domain }

// Scheduled reports the total number of events the environment has sequenced
// since creation, including wake-ups the Sleep fast path elides. It is a
// deterministic measure of kernel work: for a well-formed sharded workload it
// is identical at every shard and worker count, which makes it both the
// events/sec numerator of the scaling benchmarks and a cheap determinism
// fingerprint.
func (e *Env) Scheduled() int64 { return e.seq }

// newEvent takes an event from the recycle pool (or allocates one) and
// stamps it with the clamped time and the next sequence number.
func (e *Env) newEvent(t Time) *event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.t, ev.seq = t, e.seq
		return ev
	}
	return &event{t: t, seq: e.seq}
}

// recycle clears a fired event and returns it to the pool.
func (e *Env) recycle(ev *event) {
	ev.fn, ev.p, ev.msg = nil, nil, resumeMsg{}
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// schedule enqueues fn to run at time t (>= now) in scheduler context.
func (e *Env) schedule(t Time, fn func()) {
	ev := e.newEvent(t)
	ev.fn = fn
	e.events.pushEv(ev)
}

// scheduleResume enqueues "resume p with msg" at time t without allocating
// a closure. Resuming an exited process is a no-op, so callers need not
// guard against the target dying first.
func (e *Env) scheduleResume(t Time, p *Proc, msg resumeMsg) {
	ev := e.newEvent(t)
	ev.p, ev.msg = p, msg
	e.events.pushEv(ev)
}

// fire dispatches a dequeued event. The event is recycled first (its fields
// are copied out), so callbacks may immediately reuse the slot.
func (e *Env) fire(ev *event) {
	fn, p, msg := ev.fn, ev.p, ev.msg
	e.recycle(ev)
	if fn != nil {
		fn()
		return
	}
	e.resume(p, msg)
}

// At schedules fn to run at the given virtual time. fn runs in scheduler
// context: it must not block on simulation primitives, but it may spawn
// processes or trigger events.
func (e *Env) At(t Time, fn func()) { e.schedule(t, fn) }

// AfterFunc schedules fn to run d after the current time.
func (e *Env) AfterFunc(d Duration, fn func()) { e.schedule(e.now.After(d), fn) }

// Stop halts the simulation after the currently firing event completes.
func (e *Env) Stop() { e.stopped = true }

// Proc is a simulation process. A Proc's body runs on a runtime coroutine
// (iter.Pull) and executes only while the scheduler has resumed it; calling
// a blocking method (Sleep, channel Recv, ...) parks the body by yielding
// control back to the scheduler. When the body exits, its coroutine goes to
// the Env's idle list, and a later Spawn runs its body on it.
type Proc struct {
	env    *Env
	name   string
	body   func(p *Proc) // set by Spawn, cleared when the body starts
	co     *coro         // the coroutine running the body, from start to exit
	inbox  resumeMsg     // the message of the resume in progress; park clears it
	exited bool
}

// coro is a coroutine that runs process bodies one after another. While a
// body runs the coroutine is bound to its Proc; between bodies it waits on
// its Env's idle list. Its closure holds the coro, never a body, so an idle
// coroutine pins no finished body's captures.
type coro struct {
	env   *Env
	p     *Proc // the bound process; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

type resumeMsg struct {
	interrupted bool
	val         any
}

// Interrupted is the panic value delivered to a process that is interrupted
// while parked. Process bodies normally let it propagate; the kernel recovers
// it and terminates the process cleanly.
type Interrupted struct{ Proc string }

func (i Interrupted) Error() string { return "sim: process " + i.Proc + " interrupted" }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Spawn creates a process named name whose body is fn and schedules it to
// start at the current virtual time. It returns immediately.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAfter(0, name, fn)
}

// SpawnAfter is Spawn with a start delay of d.
func (e *Env) SpawnAfter(d Duration, name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, body: fn}
	e.nprocs++
	e.spawned = append(e.spawned, p)
	e.scheduleResume(e.now.After(d), p, resumeMsg{})
	return p
}

// bind gives p a coroutine for its first run: the most recently idled one,
// or a new one when none is idle.
func (e *Env) bind(p *Proc) *coro {
	var c *coro
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = &coro{env: e}
		c.next, c.stop = iter.Pull(c.run)
	}
	c.p, p.co = p, c
	return c
}

// run is the coroutine body: it runs the bound process's body, then waits
// on the idle list until bind hands it the next process. It ends when the
// idle list is full or stopIdle stops it.
func (c *coro) run(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.exec()
		e := c.env
		if len(e.idle) >= maxIdleCoros {
			return
		}
		e.idle = append(e.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// exec runs the bound process's body to completion and retires the
// process. An Interrupted panic ends the body cleanly. Any other panic, and
// runtime.Goexit (t.Fatal in a test body), ends the coroutine instead:
// iter.Pull re-raises it in the goroutine that resumed the process, so it
// reaches the caller of Run.
func (c *coro) exec() {
	p := c.p
	body := p.body
	p.body = nil
	p.inbox = resumeMsg{}
	returned := false
	defer func() {
		c.p, p.co = nil, nil
		c.env.exit(p)
		if returned {
			return
		}
		r := recover()
		if r == nil {
			return // runtime.Goexit: let it unwind
		}
		if _, ok := r.(Interrupted); ok {
			return
		}
		panic(fmt.Sprintf("sim: process %q panicked: %v\n\n%s", p.name, r, debug.Stack()))
	}()
	body(p)
	returned = true
}

// exit marks p exited and updates the live-process bookkeeping.
func (e *Env) exit(p *Proc) {
	p.exited = true
	e.nprocs--
	e.noteExit()
}

// stopIdle ends every idle coroutine. A parked coroutine is a GC root that
// references its Env, so an Env whose idle coroutines outlive Run would
// never be collected.
func (e *Env) stopIdle() {
	for i, c := range e.idle {
		e.idle[i] = nil
		c.stop()
	}
	e.idle = e.idle[:0]
}

// noteExit records a process exit and compacts e.spawned once exited procs
// dominate it, so long soak runs that spawn millions of short-lived procs
// keep BlockedProcs bookkeeping bounded by the number of live procs. It runs
// before control returns to the scheduler, the same discipline under which
// Spawn appends.
func (e *Env) noteExit() {
	e.exited++
	if e.exited < 64 || e.exited*2 < len(e.spawned) {
		return
	}
	live := e.spawned[:0]
	for _, q := range e.spawned {
		if !q.exited {
			live = append(live, q)
		}
	}
	for i := len(live); i < len(e.spawned); i++ {
		e.spawned[i] = nil
	}
	e.spawned = live
	e.exited = 0
}

// resume hands control to p with msg and returns once p parks again or
// exits. A process interrupted before its first run exits without ever
// taking a coroutine.
//
//molecule:hotpath
func (e *Env) resume(p *Proc, msg resumeMsg) {
	if p.exited {
		return
	}
	c := p.co
	if c == nil {
		if msg.interrupted {
			p.body = nil
			e.exit(p)
			return
		}
		c = e.bind(p)
	}
	prev := e.running
	e.running = p
	p.inbox = msg
	c.next()
	e.running = prev
}

// park yields control back to the scheduler and returns the message of the
// resume that wakes it. It clears the inbox so a parked or exited process
// does not pin the last value it received.
//
//molecule:hotpath
func (p *Proc) park() resumeMsg {
	p.co.yield(struct{}{})
	msg := p.inbox
	p.inbox = resumeMsg{}
	if msg.interrupted {
		panic(Interrupted{Proc: p.name})
	}
	return msg
}

// Sleep advances the process by d of virtual time.
//
// Fast path: when p is the running process and its wake-up would be the very
// next event to fire (no other event is due at or before the wake time, no
// Stop, RunUntil horizon, or shard-window bound intervenes), the kernel
// advances the clock and
// returns directly — the outcome is identical to parking, having the
// scheduler pop the wake event, and resuming, but without the two coroutine
// switches or the heap traffic. Pending same-instant events (including
// Interrupts, which are scheduled at the current time) always have an
// earlier (time, seq) position and therefore disable the fast path, so
// event ordering is preserved exactly.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	env := p.env
	t := env.now.After(d)
	if env.running == p && !env.stopped && (env.limit == 0 || t <= env.limit) &&
		(env.windowBound == 0 || (env.windowBound > 0 && t < env.windowBound)) &&
		(len(env.events) == 0 || env.events.peek().t > t) {
		env.seq++ // account for the wake event this path elides
		env.now = t
		return
	}
	env.scheduleResume(t, p, resumeMsg{})
	p.park()
}

// Yield parks the process and reschedules it at the same virtual time, after
// all events already queued for this instant.
func (p *Proc) Yield() { p.Sleep(0) }

// Interrupt wakes a parked process by panicking Interrupted inside it. It is
// the simulation analogue of killing a blocked process. Interrupting a
// process that is not parked (or already exited) is a no-op.
func (p *Proc) Interrupt() {
	if p.exited {
		return
	}
	p.env.scheduleResume(p.env.now, p, resumeMsg{interrupted: true})
}

// Run drives the simulation until no events remain or Stop is called.
// It returns the final virtual time. A panic in a process body, other than
// Interrupted, propagates out of Run, and so does runtime.Goexit (t.Fatal);
// the Env is not usable afterwards.
func (e *Env) Run() Time {
	e.limit = 0
	defer e.stopIdle()
	return e.loop()
}

// RunUntil drives the simulation until virtual time t; events scheduled
// later than t remain queued. It returns the final virtual time (<= t).
func (e *Env) RunUntil(t Time) Time {
	e.limit = t
	defer func() {
		e.limit = 0
		e.stopIdle()
	}()
	return e.loop()
}

func (e *Env) loop() Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		if e.limit > 0 && e.events.peek().t > e.limit {
			e.now = e.limit
			break
		}
		ev := e.events.popEv()
		e.now = ev.t
		e.fire(ev)
	}
	return e.now
}

// window is the shard dispatch loop: it fires every queued event with
// t < bound and returns the number fired. Events at or beyond the bound stay
// queued for a later window, after the group barrier has delivered pending
// cross-domain messages. While the window is open the Sleep fast path is
// capped at the bound, so no process can advance past a barrier it must
// observe. The loop itself allocates nothing; all allocation happens (or is
// elided) inside the fired events, exactly as in the classic loop.
//
//molecule:hotpath
func (e *Env) window(bound Time) int {
	e.windowBound = bound
	n := 0
	for len(e.events) > 0 && !e.stopped {
		if e.events.peek().t >= bound {
			break
		}
		ev := e.events.popEv()
		e.now = ev.t
		e.fire(ev)
		n++
	}
	e.windowBound = 0
	return n
}

// fireNext pops and fires the single earliest event with the fast path
// disabled; the zero-lookahead sequential merge uses it, where a cross-domain
// message may arrive at any future instant and therefore no elided wake-up is
// safe. The caller has checked that an event is queued.
func (e *Env) fireNext() {
	e.windowBound = fastPathOff
	ev := e.events.popEv()
	e.now = ev.t
	e.fire(ev)
	e.windowBound = 0
}

// nextEventTime returns the time of the earliest queued event and whether
// one exists.
func (e *Env) nextEventTime() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events.peek().t, true
}

// Pending reports the number of queued events.
func (e *Env) Pending() int { return len(e.events) }

// LiveProcs reports the number of spawned processes that have not exited.
// After Run returns, a nonzero value means processes are blocked forever
// (deadlocked on channels or resources).
func (e *Env) LiveProcs() int { return e.nprocs }

// BlockedProcs returns the names of processes that were spawned and have
// not exited — after Run returns, these are parked forever. For diagnosing
// deadlocks in tests.
//
// The returned slice is sorted lexicographically. That order is a documented
// guarantee: spawn order is an implementation detail that differs between a
// monolithic run and a domain-sharded run of the same workload (and between
// shard counts), so diagnostics built on BlockedProcs compare equal at every
// shard and worker count.
func (e *Env) BlockedProcs() []string {
	var out []string
	for _, p := range e.spawned {
		if !p.exited {
			out = append(out, p.name)
		}
	}
	sort.Strings(out)
	return out
}
