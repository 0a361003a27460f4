package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNilObserverIsFullyInert(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	// Every call on the nil chain must be a safe no-op.
	s := o.Span(nil, "root", 0)
	s.SetAttr("k", "v")
	s.SetPU(3)
	s.Finish()
	if s.Duration() != 0 {
		t.Error("nil span has duration")
	}
	o.Counter("c", L("pu", "0")).Add(5)
	o.Counter("c").Inc()
	o.Gauge("g").Set(1)
	o.Gauge("g").Add(-1)
	o.Histogram("h").Observe(time.Millisecond)
	var tr *Tracer
	tr.NamePU(0, "host")
	tr.Reset()
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil tracer records spans")
	}
	if _, ok := tr.Find("root"); ok {
		t.Error("nil tracer finds spans")
	}
	var reg *Registry
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry exposition: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Errorf("nil tracer chrome export: %v", err)
	}
	var v map[string]any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Errorf("nil-tracer export is not valid JSON: %v", err)
	}
}

// TestNilFastPathAllocs pins the disabled-path cost: a guarded call site
// must not allocate. This is the per-callsite analogue of the kernel
// microbenchmark gate (BenchmarkKernelSleep staying 0 allocs/op).
func TestNilFastPathAllocs(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(100, func() {
		s := o.Span(nil, "invoke", 0)
		s.SetAttr("fn", "x")
		s.Finish()
	})
	if allocs != 0 {
		t.Errorf("nil-observer span path allocates %v per op, want 0", allocs)
	}
	// The obs v2 types keep the same contract: detached SLO recording and
	// window observation must stay allocation-free.
	var sk *Sketch
	var e *SLOEngine
	var wt *WindowTelemetry
	ws := sim.WindowStats{}
	allocs = testing.AllocsPerRun(100, func() {
		o.RecordSLO("f", time.Millisecond)
		sk.Observe(time.Millisecond)
		e.Record("f", time.Millisecond)
		wt.WindowRound(ws)
	})
	if allocs != 0 {
		t.Errorf("nil obs v2 fast paths allocate %v per op, want 0", allocs)
	}
}

// TestInternedLabelSet pins the interned lookup contract: a LabelSet
// resolves to the same series as the variadic lookup, survives a registry
// swap, and the hit path performs zero allocations.
func TestInternedLabelSet(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	ls := Intern("xpu_nipc_messages_total", L("link", "0->1"))

	o.CounterSet(ls).Add(3)
	if got := o.Counter("xpu_nipc_messages_total", L("link", "0->1")).Value(); got != 3 {
		t.Fatalf("interned and variadic lookups disagree: %d", got)
	}
	o.GaugeSet(Intern("g", L("a", "1"))).Set(7)
	if got := o.Gauge("g", L("a", "1")).Value(); got != 7 {
		t.Fatalf("interned gauge = %v, want 7", got)
	}
	o.HistogramSet(Intern("h")).Observe(time.Millisecond)
	if got := o.Histogram("h").Count(); got != 1 {
		t.Fatalf("interned histogram count = %d, want 1", got)
	}

	// Observer-independent: the same LabelSet addresses the equivalent
	// series in a fresh registry (caches survive SetObserver swaps).
	o2 := New(env)
	o2.CounterSet(ls).Inc()
	if got := o2.Counter("xpu_nipc_messages_total", L("link", "0->1")).Value(); got != 1 {
		t.Fatalf("LabelSet not portable across registries: %d", got)
	}

	// Nil-safe like every other lookup.
	var nilObs *Observer
	nilObs.CounterSet(ls).Inc()
	nilObs.GaugeSet(ls).Set(1)
	nilObs.HistogramSet(ls).Observe(time.Second)

	if allocs := testing.AllocsPerRun(100, func() {
		o.CounterSet(ls).Inc()
		o.GaugeSet(ls).Set(1)
	}); allocs != 0 {
		t.Errorf("interned hit path allocates %v per op, want 0", allocs)
	}
}

func TestSpanTreeAndVirtualTime(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	env.Spawn("driver", func(p *sim.Proc) {
		root := o.Span(nil, "invoke", 0)
		root.SetAttr("fn", "helloworld")
		p.Sleep(2 * time.Millisecond)
		child := o.Span(root, "handler", -1) // inherits PU 0
		p.Sleep(3 * time.Millisecond)
		child.Finish()
		root.Finish()
	})
	env.Run()

	spans := o.Tracer.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	root, child := spans[0], spans[1]
	if root.Parent != 0 || child.Parent != root.ID {
		t.Errorf("tree broken: root.Parent=%d child.Parent=%d root.ID=%d", root.Parent, child.Parent, root.ID)
	}
	if child.PU != 0 {
		t.Errorf("child did not inherit PU: %d", child.PU)
	}
	if got := root.End.Sub(root.Start); got != 5*time.Millisecond {
		t.Errorf("root duration = %v, want 5ms", got)
	}
	if got := child.End.Sub(child.Start); got != 3*time.Millisecond {
		t.Errorf("child duration = %v, want 3ms", got)
	}
	if child.Start != sim.Time(2*time.Millisecond) {
		t.Errorf("child start = %v", child.Start)
	}
	kids := o.Tracer.Children(root.ID)
	if len(kids) != 1 || kids[0].Name != "handler" {
		t.Errorf("Children(root) = %+v", kids)
	}
}

func TestSpansSnapshotIsACopy(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	s := o.Span(nil, "a", 0)
	s.SetAttr("k", "v")
	s.Finish()
	snap := o.Tracer.Spans()
	snap[0].Name = "corrupted"
	snap[0].Attrs[0].Value = "corrupted"
	again := o.Tracer.Spans()
	if again[0].Name != "a" || again[0].Attrs[0].Value != "v" {
		t.Error("Spans() aliases internal state; mutation leaked through")
	}
	got, ok := o.Tracer.Find("a")
	if !ok || got.Attrs[0].Value != "v" {
		t.Error("Find() affected by snapshot mutation")
	}
}

func TestDoubleFinishKeepsFirstEnd(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	env.Spawn("driver", func(p *sim.Proc) {
		s := o.Span(nil, "a", 0)
		p.Sleep(time.Millisecond)
		s.Finish()
		p.Sleep(time.Millisecond)
		s.Finish() // must not move End
	})
	env.Run()
	sp, _ := o.Tracer.Find("a")
	if sp.End != sim.Time(time.Millisecond) {
		t.Errorf("second Finish moved End to %v", sp.End)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("molecule_cold_starts_total", L("pu", "0"))
	c.Add(2)
	c.Inc()
	c.Add(-5) // negative adds ignored: counters are monotone
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	// Same (name, labels) resolves to the same series regardless of label
	// order at the call site.
	if r.Counter("x", L("a", "1"), L("b", "2")) != r.Counter("x", L("b", "2"), L("a", "1")) {
		t.Error("label order created distinct series")
	}
	g := r.Gauge("depth", L("fifo", "req-1"))
	g.Set(4)
	g.Add(-1)
	if g.Value() != 3 {
		t.Errorf("gauge = %v, want 3", g.Value())
	}
	h := r.Histogram("lat", L("pu", "1"))
	h.Observe(500 * time.Microsecond) // bucket le=1ms
	h.Observe(30 * time.Millisecond)  // bucket le=50ms
	h.Observe(time.Hour)              // +Inf
	if h.Count() != 3 {
		t.Errorf("hist count = %d", h.Count())
	}
	if h.Sum() != time.Hour+30*time.Millisecond+500*time.Microsecond {
		t.Errorf("hist sum = %v", h.Sum())
	}
	b := h.Buckets()
	if len(b) != numHistBuckets+1 {
		t.Fatalf("buckets = %d", len(b))
	}
	if b[len(b)-1] != 1 {
		t.Errorf("+Inf bucket = %d, want 1", b[len(b)-1])
	}
	var total int64
	for _, n := range b {
		total += n
	}
	if total != 3 {
		t.Errorf("bucket total = %d, want 3", total)
	}
	b[0] = 99
	if h.Buckets()[0] == 99 {
		t.Error("Buckets() aliases internal state")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("molecule_cold_starts_total", "Cold starts by PU.")
	r.Counter("molecule_cold_starts_total", L("pu", "1")).Add(7)
	r.Counter("molecule_cold_starts_total", L("pu", "0")).Add(2)
	r.Gauge("xpu_fifo_depth", L("fifo", "req-1")).Set(2)
	r.Histogram("molecule_invoke_latency_seconds", L("pu", "0")).Observe(3 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wants := []string{
		"# HELP molecule_cold_starts_total Cold starts by PU.",
		"# TYPE molecule_cold_starts_total counter",
		`molecule_cold_starts_total{pu="0"} 2`,
		`molecule_cold_starts_total{pu="1"} 7`,
		"# TYPE xpu_fifo_depth gauge",
		`xpu_fifo_depth{fifo="req-1"} 2`,
		"# TYPE molecule_invoke_latency_seconds histogram",
		`molecule_invoke_latency_seconds_bucket{pu="0",le="0.005"} 1`,
		`molecule_invoke_latency_seconds_bucket{pu="0",le="+Inf"} 1`,
		`molecule_invoke_latency_seconds_sum{pu="0"} 0.003`,
		`molecule_invoke_latency_seconds_count{pu="0"} 1`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// pu="0" series must sort before pu="1".
	if strings.Index(out, `pu="0"} 2`) > strings.Index(out, `pu="1"} 7`) {
		t.Error("series not sorted by label set")
	}
	// Cumulative buckets: a 3ms sample lands in every bucket from le=0.005 up.
	if strings.Contains(out, `le="0.0025"} 1`) {
		t.Error("3ms sample counted in the 2.5ms bucket")
	}
	// Determinism: a second render produces identical bytes.
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if buf.String() != buf2.String() {
		t.Error("exposition is not deterministic")
	}
}

// TestPrometheusBucketBoundaries is the regression test for two
// boundary bugs: observations exactly on a bucket's upper bound must land
// in that bucket (inclusive le semantics), and the series sort key must
// strip only the real le pair — a label whose key merely ends in "le"
// (role="edge" contains the bytes le=") used to derail bucket ordering.
func TestPrometheusBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_latency_seconds", L("role", "edge"))
	h.Observe(time.Millisecond)                 // exactly le=0.001
	h.Observe(2500 * time.Microsecond)          // exactly le=0.0025
	h.Observe(10 * time.Second)                 // exactly the last finite bucket
	h.Observe(10*time.Second + time.Nanosecond) // past every bound: +Inf
	r.Histogram("edge_latency_seconds", L("role", "core")).Observe(time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Inclusive edges and cumulative counts.
	for _, want := range []string{
		`edge_latency_seconds_bucket{role="edge",le="0.001"} 1`,
		`edge_latency_seconds_bucket{role="edge",le="0.0025"} 2`,
		`edge_latency_seconds_bucket{role="edge",le="0.005"} 2`,
		`edge_latency_seconds_bucket{role="edge",le="10"} 3`,
		`edge_latency_seconds_bucket{role="edge",le="+Inf"} 4`,
		`edge_latency_seconds_count{role="edge"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets must appear in ascending-le order — lexical sorting of le
	// strings would put +Inf first and 1e-06 last.
	order := []string{
		`{role="edge",le="1e-06"}`,
		`{role="edge",le="0.001"}`,
		`{role="edge",le="10"}`,
		`{role="edge",le="+Inf"}`,
	}
	prev := -1
	for _, marker := range order {
		i := strings.Index(out, marker)
		if i < 0 {
			t.Fatalf("exposition missing %q:\n%s", marker, out)
		}
		if i < prev {
			t.Fatalf("bucket %q out of ascending-le order:\n%s", marker, out)
		}
		prev = i
	}
	// Cross-series ordering: the whole role="core" block sorts before
	// role="edge".
	if strings.Index(out, `{role="core",le="+Inf"}`) > strings.Index(out, `{role="edge",le="1e-06"}`) {
		t.Errorf("series not sorted by label set:\n%s", out)
	}
}

func TestChromeTraceExport(t *testing.T) {
	env := sim.NewEnv()
	o := New(env)
	o.Tracer.NamePU(0, "PU 0 (host)")
	o.Tracer.NamePU(1, "PU 1 (bf1-0)")
	env.Spawn("driver", func(p *sim.Proc) {
		root := o.Span(nil, "invoke", 0)
		p.Sleep(time.Millisecond)
		c := o.Span(root, "handler", 1)
		c.SetAttr("fn", "matmul")
		p.Sleep(2 * time.Millisecond)
		c.Finish()
		root.Finish()
	})
	env.Run()

	var buf bytes.Buffer
	if err := o.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) != 4 { // 2 metadata + 2 spans
		t.Fatalf("events = %d, want 4", len(file.TraceEvents))
	}
	meta := file.TraceEvents[0]
	if meta.Ph != "M" || meta.Args["name"] != "PU 0 (host)" {
		t.Errorf("metadata event = %+v", meta)
	}
	var handler *struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Tid  int               `json:"tid"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Args map[string]string `json:"args"`
	}
	for i := range file.TraceEvents {
		if file.TraceEvents[i].Name == "handler" {
			handler = &file.TraceEvents[i]
		}
	}
	if handler == nil {
		t.Fatal("no handler event")
	}
	if handler.Ph != "X" || handler.Tid != 1+chromeTrackOffset {
		t.Errorf("handler event = %+v", handler)
	}
	if handler.Ts != 1000 || handler.Dur != 2000 { // microseconds
		t.Errorf("handler ts/dur = %v/%v, want 1000/2000", handler.Ts, handler.Dur)
	}
	if handler.Args["fn"] != "matmul" || handler.Args["parent"] != "1" {
		t.Errorf("handler args = %v", handler.Args)
	}
}
