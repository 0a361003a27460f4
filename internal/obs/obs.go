// Package obs is the observability layer for the Molecule reproduction: a
// hierarchical span tracer and a metrics registry, both operating in virtual
// (simulated) time.
//
// The paper's key claims — Fig 8 startup, Fig 11 nIPC, Tab 4 breakdowns —
// are latency decompositions across layers (gateway → runtime placement →
// XPU-Shim → sandbox → handler). Endpoint timings alone cannot audit those
// decompositions; spans and per-PU counters recorded at each layer can.
//
// Everything is zero-cost when disabled: the runtime layers hold a
// *Observer that is nil by default, and every method on a nil *Observer,
// *Span, *Counter, *Gauge, or *Histogram is a no-op that returns
// immediately. Call sites therefore need no conditional — the nil check is
// the guard, exactly like sim.Env's tracing flag. The existing kernel
// microbenchmarks (0 allocs/op) and the golden experiment report both run
// with observability disabled and are the regression gates for this
// property.
//
// Two exporters ship with the package:
//
//   - Chrome trace_event JSON (Tracer.WriteChromeTrace), loadable in
//     Perfetto / chrome://tracing, one track per PU;
//   - Prometheus text exposition (Registry.WritePrometheus), served at
//     /metrics by internal/httpd and dumpable from the CLIs.
package obs

import "repro/internal/sim"

// Observer bundles a span tracer and a metrics registry. A nil *Observer is
// the disabled state: every method no-ops.
type Observer struct {
	Tracer  *Tracer
	Metrics *Registry

	// SLO is the optional latency-objective engine. Nil means no objectives
	// are tracked; RecordSLO then no-ops even on an enabled Observer.
	SLO *SLOEngine
}

// New returns an enabled Observer recording in env's virtual time.
func New(env *sim.Env) *Observer {
	return &Observer{Tracer: NewTracer(env), Metrics: NewRegistry()}
}

// Enabled reports whether o records anything (o != nil).
func (o *Observer) Enabled() bool { return o != nil }

// Span starts a span under parent (nil parent = root). On a nil Observer it
// returns a nil *Span, whose methods all no-op — the zero-cost fast path.
func (o *Observer) Span(parent *Span, name string, pu int) *Span {
	if o == nil {
		return nil
	}
	return o.Tracer.Start(parent, name, pu)
}

// Counter returns the named counter, creating it on first use. Nil-safe.
func (o *Observer) Counter(name string, labels ...Label) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name, labels...)
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (o *Observer) Gauge(name string, labels ...Label) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name, labels...)
}

// Histogram returns the named virtual-time histogram, creating it on first
// use. Nil-safe.
func (o *Observer) Histogram(name string, labels ...Label) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, labels...)
}

// CounterSet is Counter for a pre-interned LabelSet: one map probe, no
// per-call sort or string building. Nil-safe.
//
//molecule:hotpath
func (o *Observer) CounterSet(ls LabelSet) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.CounterSet(ls)
}

// GaugeSet is Gauge for a pre-interned LabelSet. Nil-safe.
//
//molecule:hotpath
func (o *Observer) GaugeSet(ls LabelSet) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.GaugeSet(ls)
}

// RecordSLO feeds one settled invocation's end-to-end latency into the SLO
// engine, if one is attached. Nil-safe on both the Observer and the engine —
// the detached fast path is two nil checks.
//
//molecule:hotpath
func (o *Observer) RecordSLO(fn string, d sim.Duration) {
	if o == nil || o.SLO == nil {
		return
	}
	o.SLO.Record(fn, d)
}
