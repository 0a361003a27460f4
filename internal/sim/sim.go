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
// process p is resumed with val. The dedicated resume form is the hot path —
// Sleep, channel wake-ups, and spawn starts all use it — and avoids
// allocating a fresh closure per schedule. Fired events are recycled through
// Env.free, so steady-state scheduling allocates nothing.
type event struct {
	t   Time
	seq int64
	fn  func() // generic callback; nil for resume events
	p   *Proc  // resume target when fn is nil
	val any    // the resume's value
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

	free []*event // recycled fired events, capped at maxFreeEvents
	idle []*coro  // coroutines whose body exited, for Spawn to reuse; capped at maxIdleCoros

	// Sharded-execution fields. A standalone Env (NewEnv) has group == nil
	// and domain 0; an Env created by NewSharded is one domain of a group.
	// windowBound is the exclusive virtual-time bound of the window the
	// domain is currently executing: 0 means unbounded (the classic
	// single-heap loop), and a positive value caps the Sleep fast path so a
	// process cannot advance past a barrier at which cross-domain messages
	// are delivered.
	group       *Sharded
	domain      int
	windowBound Time
	inlined     int // callbacks Sleep fired inline since the window opened

	tracing bool
	trace   []TraceEvent
	spawned []*Proc // procs visible to BlockedProcs; compacted as procs exit
	exited  int     // exited procs still occupying a spawned slot

	cost HostCost
	// digesting turns on digest, the running hash of every event that
	// takes effect; see EnableDigest.
	digesting bool
	digest    uint64
}

// HostCost counts the kernel's host-side work. Like Scheduled(), each count
// depends only on the program and the driver (classic loop, or a sharded
// group at a given shard count), never on the host, so a test can pin it
// exactly. A coroutine switch costs several heap events' worth of host
// time, which is why stepped waits exist.
type HostCost struct {
	Switches int64 // coroutine switches into a process, body starts included
	Pops     int64 // events popped off the heap, inline callbacks included
	Inline   int64 // callbacks a Sleep fired inline (fireDue)
	Stepped  int64 // resumes a stepped wait took without a switch
}

// Add returns the sum of two counts.
func (c HostCost) Add(o HostCost) HostCost {
	return HostCost{c.Switches + o.Switches, c.Pops + o.Pops, c.Inline + o.Inline, c.Stepped + o.Stepped}
}

// maxFreeEvents caps the recycle pool; beyond this, fired events are left
// for the GC. The cap bounds kernel memory on runs with huge event bursts.
const maxFreeEvents = 1024

// maxIdleCoros caps the idle coroutine list; beyond it, a coroutine whose
// body exits ends instead of waiting for the next Spawn. Every idle
// coroutine is a goroutine whose stack the GC scans and shrinks each cycle
// and that must regrow it on reuse, so the list keeps only what is
// reused: on cluster-steady, caps of 16 to 1024 gave the same throughput
// within noise, and 64 the best median with a peak heap of about 7.1 MB
// where 1024 held 7.8-8.5 MB (EXPERIMENTS.md).
const maxIdleCoros = 64

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
// is identical at every shard count, which makes it both the
// events/sec numerator of the scaling benchmarks and a cheap determinism
// fingerprint.
func (e *Env) Scheduled() int64 { return e.seq }

// HostCost reports the kernel's host-side work since creation.
func (e *Env) HostCost() HostCost { return e.cost }

// EnableDigest starts the event digest: from now on every event that takes
// effect, whether popped off the heap, fired inline by a Sleep, or elided
// by the Sleep fast path, folds its (time, sequence number, target) into a
// running 64-bit hash. The target is the resumed process's name, or a fixed
// marker for a callback. Two runs that sequence the same events in the same
// order give the same digest, whichever path each event took, so the digest
// holds a change to the kernel's host mechanics to exact event order. Off by
// default; when off it costs one branch per event.
func (e *Env) EnableDigest() {
	if !e.digesting {
		e.digesting, e.digest = true, FNVOffset
	}
}

// Digest returns the event digest; 0 when EnableDigest was never called.
func (e *Env) Digest() uint64 { return e.digest }

// digestCallback stands for a callback target in the digest: function
// addresses differ between builds.
const digestCallback uint64 = 0x9e3779b97f4a7c15

// mix folds one event that takes effect into the digest.
func (e *Env) mix(t Time, seq int64, p *Proc) {
	h := FNVMix(FNVMix(e.digest, uint64(t)), uint64(seq))
	if p == nil {
		h = FNVMix(h, digestCallback)
	} else {
		h = FNVMix(FNVBytes(h, p.name), uint64(len(p.name)))
	}
	e.digest = h
}

// newEvent takes an event from the recycle pool (or allocates one) and
// stamps it with the clamped time and the next sequence number.
func (e *Env) newEvent(t Time) *event {
	e.seq++
	return e.eventAt(t, e.seq)
}

// eventAt is newEvent with a sequence number the caller already reserved.
func (e *Env) eventAt(t Time, seq int64) *event {
	if t < e.now {
		t = e.now
	}
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.t, ev.seq = t, seq
		return ev
	}
	return &event{t: t, seq: seq}
}

// recycle clears a fired event and returns it to the pool.
func (e *Env) recycle(ev *event) {
	ev.fn, ev.p, ev.val = nil, nil, nil
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

// scheduleResume enqueues "resume p with val" at time t without allocating
// a closure. Resuming an exited process is a no-op, so callers need not
// guard against the target dying first.
func (e *Env) scheduleResume(t Time, p *Proc, val any) {
	e.seq++
	e.queueResume(t, e.seq, p, val)
}

// queueResume is scheduleResume with a sequence number the caller already
// reserved.
func (e *Env) queueResume(t Time, seq int64, p *Proc, val any) {
	ev := e.eventAt(t, seq)
	ev.p, ev.val = p, val
	e.events.pushEv(ev)
}

// fire dispatches an event just popped off the heap. The event is recycled
// first (its fields are copied out), so callbacks may immediately reuse the
// slot.
func (e *Env) fire(ev *event) {
	fn, p, val := ev.fn, ev.p, ev.val
	e.cost.Pops++
	if e.digesting {
		e.mix(ev.t, ev.seq, p)
	}
	e.recycle(ev)
	if fn != nil {
		fn()
		return
	}
	e.resume(p, val)
}

// At schedules fn to run at the given virtual time. fn runs in scheduler
// context: it must not block on simulation primitives, but it may spawn
// processes or trigger events.
func (e *Env) At(t Time, fn func()) { e.schedule(t, fn) }

// AfterFunc schedules fn to run d after the current time.
func (e *Env) AfterFunc(d Duration, fn func()) { e.schedule(e.now.After(d), fn) }

// AtSeries schedules n callbacks: member i runs fn(i) at virtual time at(i),
// in scheduler context like At. It is observably the same as calling
// e.At(at(i), func() { fn(i) }) for every i now, but only one member is
// queued at a time, so a long arrival stream costs one event, not n.
//
// Exactness: the call reserves the next n sequence numbers, and member i
// fires at (at(i), s+i+1), where s is Scheduled() before the call. Member
// i+1 is queued while member i fires, before fn(i) runs. Because times do
// not decrease and sequence numbers increase, every unqueued member orders
// after the queued one, so the heap minimum, and with it the firing order,
// the Sleep fast path and every shard window, is what n At calls would give;
// Scheduled() and the sequence number of every other event are unchanged.
// Only the number of queued events differs. at is called exactly once per member, in order:
// at(0) during the call, at(i+1) when member i fires. A time below its
// predecessor panics.
//
//molecule:hotpath
func (e *Env) AtSeries(n int, at func(i int) Time, fn func(i int)) {
	if n <= 0 {
		return
	}
	s := &series{env: e, n: n, base: e.seq, last: at(0), at: at, fn: fn}
	e.seq += int64(n)
	s.fire = s.step
	s.queue()
}

// series is an AtSeries in progress: its queued member and what schedules
// and runs the rest.
type series struct {
	env  *Env
	n    int
	i    int   // the queued member
	base int64 // member i's sequence number is base+i+1
	last Time  // at(i) of the queued member
	at   func(i int) Time
	fn   func(i int)
	fire func() // s.step, bound once so queueing a member allocates nothing
}

// queue pushes member s.i at s.last with its reserved sequence number.
func (s *series) queue() {
	ev := s.env.eventAt(s.last, s.base+int64(s.i)+1)
	ev.fn = s.fire
	s.env.events.pushEv(ev)
}

// step fires the queued member: it queues the next one, then runs fn.
//
//molecule:hotpath
func (s *series) step() {
	i := s.i
	if next := i + 1; next < s.n {
		t := s.at(next)
		if t < s.last {
			panic("sim: AtSeries times decrease")
		}
		s.i, s.last = next, t
		s.queue()
	}
	s.fn(i)
}

// Proc is a simulation process. A Proc's body runs on a runtime coroutine
// (iter.Pull) and executes only while the scheduler has resumed it; calling
// a blocking method (Sleep, channel Recv, ...) parks the body by yielding
// control back to the scheduler. When the body exits, its coroutine goes to
// the Env's idle list, and a later Spawn runs its body on it.
//
// The fields are laid out to fit the 80-byte allocation class: every chain
// stage and request is a Proc, so one more word costs 16 bytes per process.
type Proc struct {
	env  *Env
	name string
	body func(p *Proc) // set by Spawn, cleared when the body starts
	co   *coro         // the coroutine running the body, from start to exit
	// step is the stepped wait p is parked in, if any: p's resumes run it
	// in scheduler context until it reports the wait over.
	step   Step
	inbox  any // the value of the resume in progress; park clears it
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
	e.scheduleResume(e.now.After(d), p, nil)
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
// process. A panic in the body, or runtime.Goexit (t.Fatal in a test body),
// ends the coroutine: iter.Pull re-raises it in the goroutine that resumed
// the process, so it reaches the caller of Run. A panic from a callback
// that Sleep fired inline (e.running is nil only then) is re-raised with
// its own value, as the scheduler loop would have raised it.
func (c *coro) exec() {
	p := c.p
	body := p.body
	p.body = nil
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
		if c.env.running == nil {
			panic(r)
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

// resume hands control to p with val and returns once p parks again or
// exits. A process parked in a stepped wait first runs its step, and is
// switched to only once the step reports the wait over; one that ends in
// its wait (EndInWait) exits there instead.
//
//molecule:hotpath
func (e *Env) resume(p *Proc, val any) {
	if p.exited {
		return
	}
	if p.step != nil {
		if !e.runStep(p, val) {
			return
		}
		p.step, val = nil, nil // the wait is over
		if p.co == nil && p.body == nil {
			e.exit(p)
			return
		}
	}
	c := p.co
	if c == nil {
		c = e.bind(p)
	}
	prev := e.running
	e.running = p
	p.inbox = val
	e.cost.Switches++
	c.next()
	e.running = prev
}

// runStep runs p's step on a resume's value in scheduler context and
// reports whether the wait is over. The step runs with p as the running
// process, since that is where the process itself would be: its SleepStep
// takes the Sleep fast path exactly when the process's own Sleep would
// have, and a Tracef in it names p.
func (e *Env) runStep(p *Proc, val any) bool {
	prev := e.running
	e.running = p
	done := p.step.Step(p, val)
	e.running = prev
	if !done {
		e.cost.Stepped++
	}
	return done
}

// park yields control back to the scheduler and returns the value of the
// resume that wakes it. It clears the inbox so a parked or exited process
// does not pin the last value it received.
//
//molecule:hotpath
func (p *Proc) park() any {
	p.co.yield(struct{}{})
	val := p.inbox
	p.inbox = nil
	return val
}

// Park blocks p until its next resume and returns the resume's value. It is
// the blocking driver of a step: a process that runs a step on its own
// coroutine calls Park whenever the step reports false, then steps again
// with the value, so a blocking call and a stepped wait share one
// definition of the work (see Step).
func (p *Proc) Park() any { return p.park() }

// Sleep advances the process by d of virtual time.
//
// Sleep first reserves the sequence number of its wake-up, so the wake
// orders at (t, wake) exactly as a queued one would. It then fires, inline
// on the calling coroutine, every queued callback (At, AfterFunc) that
// orders before the wake, in heap order and with no process running, as the
// scheduler would after the park. It stops at the first resume event, which
// needs a coroutine switch, and at the shard-window bound, which the
// scheduler loop must observe.
//
// Fast path: when p's wake-up is then the very next event to fire (nothing
// else orders before (t, wake) and no window bound intervenes), the kernel
// advances the clock and returns directly; otherwise it queues the wake
// with the reserved number and parks. Either way the outcome is identical
// to parking at once and letting the scheduler pop every event in turn: the
// callbacks fire in the same (time, seq) order at the same clock, anything
// they schedule takes the same sequence number, and Scheduled() counts the
// same events. Pending same-instant resumes order before the wake and
// therefore send it through the park, so event order is preserved exactly.
//
// An inline callback runs on p's stack, so a panic in it unwinds through
// p's body before it leaves Run with its own value, as from the loop; a
// body that recovers every panic around a Sleep would see it first.
func (p *Proc) Sleep(d Duration) { p.sleep(d, true) }

// SleepStep is Sleep for a step (see Step): it reserves the wake-up's
// sequence number and fires the due callbacks as Sleep does, then either
// takes the fast path, advancing the clock by d and reporting true, or
// queues the wake-up and reports false, leaving p to wait for it.
func (p *Proc) SleepStep(d Duration) bool { return p.sleep(d, false) }

// sleep is Sleep when park is set and SleepStep otherwise; one body keeps
// the hottest primitive a single call.
//
//molecule:hotpath
func (p *Proc) sleep(d Duration, park bool) bool {
	if d < 0 {
		d = 0
	}
	env := p.env
	t := env.now.After(d)
	env.seq++
	wake := env.seq
	if env.running == p {
		if len(env.events) > 0 {
			env.fireDue(t, wake)
		}
		if (env.windowBound == 0 || t < env.windowBound) &&
			(len(env.events) == 0 || orderedBefore(t, wake, env.events.peek())) {
			env.now = t
			if env.digesting {
				env.mix(t, wake, p)
			}
			return true
		}
	}
	env.queueResume(t, wake, p, nil)
	if park {
		p.park()
		return true
	}
	return false
}

// orderedBefore reports whether an event at (t, seq) fires before ev.
// Sequence numbers are unique, so otherwise ev fires first.
func orderedBefore(t Time, seq int64, ev *event) bool {
	return t < ev.t || (t == ev.t && seq < ev.seq)
}

// fireDue fires the queued callbacks that order before the running
// process's reserved wake-up at (t, wake); see Sleep. Each runs with
// e.running nil, which is how coro.exec tells a panicking callback from a
// panicking body. Callbacks fired here count in the current window's tally.
//
//molecule:hotpath
func (e *Env) fireDue(t Time, wake int64) {
	p := e.running
	for len(e.events) > 0 {
		ev := e.events.peek()
		if ev.fn == nil || orderedBefore(t, wake, ev) || (e.windowBound > 0 && ev.t >= e.windowBound) {
			break
		}
		e.events.popEv()
		e.now = ev.t
		e.inlined++
		e.cost.Inline++
		e.running = nil
		e.fire(ev)
		e.running = p
	}
}

// Run drives the simulation until no events remain and returns the final
// virtual time. A panic in a process body propagates out of Run, and so
// does runtime.Goexit (t.Fatal); the Env is not usable afterwards.
func (e *Env) Run() Time {
	defer e.stopIdle()
	for len(e.events) > 0 {
		ev := e.events.popEv()
		e.now = ev.t
		e.fire(ev)
	}
	return e.now
}

// window is the shard dispatch loop: it fires every queued event with
// t < bound and returns the number fired, counting the callbacks Sleep
// fired inline. Events at or beyond the bound stay queued for a later
// window, after the group barrier has delivered pending cross-domain
// messages. While the window is open the Sleep fast path and its inline
// callbacks are capped at the bound, so no process can advance past a
// barrier it must observe. The loop itself allocates nothing; all allocation happens (or is
// elided) inside the fired events, exactly as in the classic loop.
//
//molecule:hotpath
func (e *Env) window(bound Time) int {
	e.windowBound = bound
	e.inlined = 0
	n := 0
	for len(e.events) > 0 {
		if e.events.peek().t >= bound {
			break
		}
		ev := e.events.popEv()
		e.now = ev.t
		e.fire(ev)
		n++
	}
	e.windowBound = 0
	return n + e.inlined
}

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
// shard count.
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
