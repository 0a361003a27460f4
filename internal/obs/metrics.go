package obs

import (
	"sort"
	"strings"
	"time"
)

// Label is one dimension of a metric series (e.g. {pu="1"}, {fn="matmul"},
// {link="0->1"}).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. A nil *Counter no-ops.
type Counter struct {
	labels []Label
	v      int64
}

// Add increments the counter by n (negative n is ignored). Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v += n
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a value that can go up and down (e.g. FIFO queue depth). A nil
// *Gauge no-ops.
type Gauge struct {
	labels []Label
	v      float64
}

// Set replaces the gauge's value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add shifts the gauge by d. Nil-safe.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.v += d
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets are the virtual-time histogram upper bounds. They span the
// latencies this system produces — microsecond IPC round trips to multi-
// second plain cold boots — with decade-plus-midpoint resolution.
var histBuckets = []time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// numHistBuckets must equal len(histBuckets); the blank declaration below
// breaks the build if they drift apart.
const numHistBuckets = 14

var _ = [1]struct{}{}[len(histBuckets)-numHistBuckets]

// Histogram accumulates virtual-time durations into fixed exponential
// buckets (Prometheus classic histogram semantics: cumulative buckets plus
// sum and count). A nil *Histogram no-ops.
type Histogram struct {
	labels []Label
	counts [numHistBuckets]int64 // one per histBuckets entry
	inf    int64                 // +Inf overflow bucket
	sum    time.Duration
	n      int64
}

// Observe records one duration. Bucket upper bounds are inclusive
// (Prometheus le semantics): a value exactly on a bucket edge belongs to
// that bucket. Nil-safe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.sum += d
	h.n++
	for i, ub := range histBuckets {
		if d <= ub {
			h.counts[i]++
			return
		}
	}
	h.inf++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the total observed virtual time (0 on nil).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return h.sum
}

// Registry is a metrics registry: counters, gauges, and histograms keyed by
// (name, label set). Get-or-create lookups make call sites declarative; the
// registry is not safe for concurrent use (the simulation is
// single-threaded; httpd serializes on its own mutex).
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// seriesKey serializes name plus the sorted label set; it identifies one
// series. sortLabels returns the sorted copy stored on the instrument.
func seriesKey(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String(), ls
}

// LabelSet is a pre-interned series identity: the (name, sorted labels)
// series key is computed once at construction, so hot paths can look up
// instruments with a single map probe — no sorting or string building per
// call. A LabelSet is observer-independent: it stays valid across
// Registry/Observer swaps, which is why call sites cache LabelSets rather
// than instrument pointers.
type LabelSet struct {
	key    string
	labels []Label
}

// Intern builds the LabelSet for (name, labels). Construction pays the
// one-time sort+serialize cost that Counter/Gauge/Histogram would otherwise
// pay on every lookup.
func Intern(name string, labels ...Label) LabelSet {
	k, ls := seriesKey(name, labels)
	return LabelSet{key: k, labels: ls}
}

// CounterSet returns the counter series for a pre-interned LabelSet,
// creating it on first use. Zero allocations on the hit path. Nil-safe.
//
//molecule:hotpath
func (r *Registry) CounterSet(ls LabelSet) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[ls.key]
	if !ok {
		c = &Counter{labels: ls.labels}
		r.counters[ls.key] = c
	}
	return c
}

// GaugeSet returns the gauge series for a pre-interned LabelSet, creating it
// on first use. Zero allocations on the hit path. Nil-safe.
//
//molecule:hotpath
func (r *Registry) GaugeSet(ls LabelSet) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[ls.key]
	if !ok {
		g = &Gauge{labels: ls.labels}
		r.gauges[ls.key] = g
	}
	return g
}

// Counter returns the counter series for (name, labels), creating it on
// first use. Nil-safe: a nil Registry returns a nil Counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k, ls := seriesKey(name, labels)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{labels: ls}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge series for (name, labels), creating it on first
// use. Nil-safe.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k, ls := seriesKey(name, labels)
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{labels: ls}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram series for (name, labels), creating it on
// first use. Nil-safe.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k, ls := seriesKey(name, labels)
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{labels: ls}
		r.hists[k] = h
	}
	return h
}

// SetHelp registers a HELP line for a metric family, emitted by the
// Prometheus exporter. Nil-safe.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.help[name] = help
}
