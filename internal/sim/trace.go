package sim

import (
	"fmt"
	"io"
)

// TraceEvent is one recorded occurrence in virtual time.
type TraceEvent struct {
	T     Time
	Proc  string // name of the emitting process ("" for scheduler context)
	Event string
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("%12v  %-24s %s", e.T, e.Proc, e.Event)
}

// EnableTrace starts recording trace events. Tracing is off by default and
// costs nothing when disabled.
func (e *Env) EnableTrace() { e.tracing = true }

// Tracing reports whether tracing is enabled.
func (e *Env) Tracing() bool { return e.tracing }

// TraceLog returns a copy of the recorded events in order. Callers may keep
// or mutate the slice freely; it never aliases the live log, which later
// Tracef calls keep appending to.
func (e *Env) TraceLog() []TraceEvent {
	if e.trace == nil {
		return nil
	}
	out := make([]TraceEvent, len(e.trace))
	copy(out, e.trace)
	return out
}

// Tracef records a formatted event from scheduler context.
func (e *Env) Tracef(format string, args ...any) {
	if !e.tracing {
		return
	}
	proc := ""
	if e.running != nil {
		proc = e.running.name
	}
	e.trace = append(e.trace, TraceEvent{T: e.now, Proc: proc, Event: fmt.Sprintf(format, args...)})
}

// Tracef records a formatted event attributed to the process.
func (p *Proc) Tracef(format string, args ...any) {
	if !p.env.tracing {
		return
	}
	p.env.trace = append(p.env.trace, TraceEvent{
		T: p.env.now, Proc: p.name, Event: fmt.Sprintf(format, args...),
	})
}

// DumpTrace writes the trace log to w, one event per line.
func (e *Env) DumpTrace(w io.Writer) {
	for _, ev := range e.trace {
		fmt.Fprintln(w, ev.String())
	}
}
