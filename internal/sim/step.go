package sim

// Step is a wait written as a state machine, so that a parked process can
// wait without its stack. Each call runs the wait from where the last one
// stopped, given the value of the resume that woke it (nil on the first
// call), and reports whether the wait is over. A call that reports false
// has re-armed the wait with exactly the primitive the blocking code would
// have parked on: SleepStep (wake after d), Resource.AcquireStep (queue for
// a unit) or Chan.RecvStep (join the receivers); the resume that primitive
// schedules is the next call's.
//
// One definition serves both kinds of caller. A blocking call drives the
// step on its own coroutine, parking (Proc.Park) whenever it reports false.
// A stepped wait (Proc.Wait, Env.SpawnWaiting) parks the process with the
// step attached, and the kernel runs the step on each resume in scheduler
// context, switching to the process only once the wait is over.
//
// Exactness: a stepped wait sequences exactly the events of its blocking
// form. The re-arming primitives are the blocking ones minus the park, so
// every event keeps its kind, time and sequence number; they are still
// resume events, so the scheduler loop, fireDue and every other process's
// Sleep fast path see the same heap. The step runs with its process as the
// running process, so its SleepStep takes the fast path, and fires due
// callbacks inline, exactly when the process's own Sleep would have. Only
// the coroutine switches go: a resume whose step re-arms the wait counts in
// HostCost.Stepped instead of Switches.
type Step interface {
	Step(p *Proc, val any) bool
}

// Wait blocks p in the stepped wait s. The first step runs at once on p's
// coroutine, taking the Sleep fast path for as long as p could have kept
// running; if the wait is not over then, p parks with s attached, and every
// later resume runs s in scheduler context instead of switching to p. Wait
// returns once a step reports the wait over.
func (p *Proc) Wait(s Step) {
	if s.Step(p, nil) {
		return
	}
	p.step = s
	p.park()
}

// SpawnWaiting is Spawn for a process whose body begins with the stepped
// wait s. The process starts parked in s: s takes its first step when the
// spawn start fires, and the body starts, on a coroutine, only once s
// reports the wait over, so the process costs no coroutine switch before
// then. A step that has done all the process's work calls EndInWait, and
// the process then ends with its wait, having never taken a coroutine.
func (e *Env) SpawnWaiting(name string, s Step, fn func(p *Proc)) *Proc {
	p := e.Spawn(name, fn)
	p.step = s
	return p
}

// EndInWait makes p, a process SpawnWaiting started whose body has not
// started, end when its stepped wait is over instead of starting its body.
// Call it from p's step: the process then exits with no coroutine switch,
// and nothing is left of it for the idle coroutine list.
func (p *Proc) EndInWait() {
	if p.co != nil {
		panic("sim: EndInWait on a process whose body has started")
	}
	p.body = nil
}
