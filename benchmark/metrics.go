package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"time"
)

// metric is one reported number's definition.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	e2e    bool   // end-to-end; otherwise per-layer
}

// metrics lists every metric in report order. Per-layer entries whose
// layer a workload does not exercise read 0 there.
var metrics = func() []metric {
	ms := []metric{
		{"setup_s", "s", "lower", true},
		{"host_ops_per_s", "1/s", "higher", true},
		{"host_peak_heap_mb", "MB", "lower", true},
		{"v_p50_ms", "ms", "lower", true},
		{"v_p99_ms", "ms", "lower", true},
		{"v_goodput_ops_per_s", "1/s", "higher", true},
		{"v_pss_mb", "MB", "lower", true},
		{"host.raw_setup_s", "s", "lower", false},
		{"host.raw_ops_per_s", "1/s", "higher", false},
		{"host.ref_mix_ms", "ms", "lower", false},
	}
	for _, l := range layers {
		ms = append(ms, metric{"host_ns_per_op." + l, "ns", "lower", false})
	}
	for _, m := range []struct{ name, unit string }{
		{"go.alloc_bytes_per_op", "B"},
		{"go.mallocs_per_op", "count"},
		{"go.gc_cycles", "count"},
		{"sim.events_per_op", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"cluster.v_boss_ms_p50", "ms"},
		{"cluster.v_boss_ms_p99", "ms"},
		{"cluster.steal_ratio", "ratio"},
		{"cluster.queued_peak", "count"},
		{"cluster.served_imbalance", "ratio"},
		{"molecule.cold_ratio", "ratio"},
		{"molecule.v_startup_ms_mean", "ms"},
		{"molecule.v_startup_ms_p99", "ms"},
		{"molecule.v_dispatch_ms_mean", "ms"},
		{"molecule.v_handler_ms_mean", "ms"},
		{"molecule.v_chain_ms_p99", "ms"},
		{"xpu.v_edge_ms_mean", "ms"},
		{"xpu.v_edge_ms_p99", "ms"},
		{"sandbox.v_instance_pss_mb", "MB"},
		{"sandbox.v_template_pss_mb", "MB"},
		{"lang.zygote_nodes", "count"},
		{"bench.profile_overhead", "ratio"},
	} {
		ms = append(ms, metric{m.name, m.unit, "lower", false})
	}
	for _, r := range ladder {
		ms = append(ms,
			metric{"ladder." + r.name + ".ns_per_op", "ns", "lower", false},
			metric{"ladder." + r.name + ".allocs_per_op", "count", "lower", false})
	}
	return ms
}()

func metricByName(name string) (metric, bool) {
	for _, m := range metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// check verifies an outcome's invariants and returns the failed-op count.
// An error is a correctness failure of the program, not a failed op.
func (o *outcome) check() (failed int, err error) {
	if o.expected > 0 && len(o.spans) != o.expected {
		return 0, fmt.Errorf("%d ops recorded, %d issued", len(o.spans), o.expected)
	}
	if len(o.spans) == 0 {
		return 0, fmt.Errorf("no ops recorded")
	}
	if o.liveProcs != 0 {
		return 0, fmt.Errorf("%d sim procs parked forever after quiescence", o.liveProcs)
	}
	for i := range o.spans {
		s := &o.spans[i]
		if s.Err != "" {
			failed++
			continue
		}
		switch {
		case s.End < s.Start:
			return 0, fmt.Errorf("span %d ends before it starts", s.ID)
		case s.Total <= 0 || s.Total > s.latency():
			return 0, fmt.Errorf("span %d: layer total %v outside client latency %v", s.ID, s.Total, s.latency())
		case s.Op == "invoke" && s.Total != s.Startup+s.Exec:
			return 0, fmt.Errorf("span %d: total %v != startup %v + exec %v", s.ID, s.Total, s.Startup, s.Exec)
		case s.Op == "invoke" && (s.Handler <= 0 || s.Exec <= 0):
			return 0, fmt.Errorf("span %d: handler %v, exec %v", s.ID, s.Handler, s.Exec)
		}
	}
	if b := o.boss; b != nil {
		if b.inflight != 0 {
			return 0, fmt.Errorf("boss left %d requests inflight", b.inflight)
		}
		served := 0
		for _, n := range b.served {
			served += n
		}
		if failed == 0 && served != len(o.spans) {
			return 0, fmt.Errorf("machines served %d, clients completed %d", served, len(o.spans))
		}
	}
	return failed, nil
}

// fingerprint folds every op outcome, the kernel event count, the virtual
// clock, the boss counters and the end-state memory into one FNV-1a hash.
// Reps of one seed, and every kernel worker count, must agree on it.
func (o *outcome) fingerprint() string {
	h := fnv.New64a()
	for i := range o.spans {
		s := &o.spans[i]
		fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n", s.Op, s.Fn, s.Err, s.Start, s.End,
			s.Machine, s.PU, s.Cold, s.Startup, s.Exec, s.Handler, s.Total, s.Edges)
	}
	fmt.Fprintf(h, "events=%d clock=%d..%d mem=%.3f/%.3f/%d/%s", o.events, o.vstart, o.vend,
		o.mem.instPSS, o.mem.tmplPSS, o.mem.zygoteNodes, o.mem.shapes)
	if b := o.boss; b != nil {
		fmt.Fprintf(h, " served=%v stolen=%d qpeak=%d", b.served, b.stolen, b.queuedPeak)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// virtualMetrics derives every virtual-time and count metric from one
// outcome. samples is the primary-op latency sample count.
func (o *outcome) virtualMetrics(primary string) (v map[string]float64, samples int) {
	var (
		lat, boss, startup []time.Duration
		chainTot, edges    []time.Duration
		dispatch, handler  time.Duration
		invokes, execs     int
		colds, completed   int
	)
	for i := range o.spans {
		s := &o.spans[i]
		if s.Err != "" {
			continue
		}
		completed++
		colds += s.Cold
		if s.Op == primary {
			lat = append(lat, s.latency())
		}
		if s.Op == "chain" {
			chainTot = append(chainTot, s.Total)
			edges = append(edges, s.Edges...)
			execs += len(s.Edges) + 1
			continue
		}
		execs++
		invokes++
		startup = append(startup, s.Startup)
		dispatch += s.Exec - s.Handler
		handler += s.Handler
		if o.boss != nil {
			boss = append(boss, s.latency()-s.Total)
		}
	}
	v = map[string]float64{
		"v_p50_ms":                    ms(percentile(lat, 50)),
		"v_p99_ms":                    ms(percentile(lat, 99)),
		"v_goodput_ops_per_s":         float64(completed) / o.vend.Sub(o.vstart).Seconds(),
		"molecule.cold_ratio":         ratio(colds, execs),
		"v_pss_mb":                    (o.mem.instPSS + o.mem.tmplPSS) / mib,
		"sim.events_per_op":           float64(o.events) / float64(len(o.spans)),
		"cluster.v_boss_ms_p50":       ms(percentile(boss, 50)),
		"cluster.v_boss_ms_p99":       ms(percentile(boss, 99)),
		"molecule.v_startup_ms_mean":  ms(mean(startup)),
		"molecule.v_startup_ms_p99":   ms(percentile(startup, 99)),
		"molecule.v_dispatch_ms_mean": ms(dispatch) / math.Max(1, float64(invokes)),
		"molecule.v_handler_ms_mean":  ms(handler) / math.Max(1, float64(invokes)),
		"molecule.v_chain_ms_p99":     ms(percentile(chainTot, 99)),
		"xpu.v_edge_ms_mean":          ms(mean(edges)),
		"xpu.v_edge_ms_p99":           ms(percentile(edges, 99)),
		"sandbox.v_instance_pss_mb":   o.mem.instPSS / mib,
		"sandbox.v_template_pss_mb":   o.mem.tmplPSS / mib,
		"lang.zygote_nodes":           float64(o.mem.zygoteNodes),
		"cluster.steal_ratio":         0,
		"cluster.queued_peak":         0,
		"cluster.served_imbalance":    0,
	}
	if b := o.boss; b != nil {
		v["cluster.steal_ratio"] = ratio(b.stolen, len(o.spans))
		v["cluster.queued_peak"] = float64(b.queuedPeak)
		total, most := 0, 0
		for _, n := range b.served {
			total += n
			most = max(most, n)
		}
		v["cluster.served_imbalance"] = float64(most) * float64(len(b.served)) / math.Max(1, float64(total))
	}
	return v, len(lat)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// percentile is the nearest-rank percentile; 0 for no samples. ds is
// sorted in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	rank := int(math.Ceil(p / 100 * float64(len(ds))))
	return ds[max(rank, 1)-1]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// quartiles returns the median and the first and third quartiles, with
// the same exclusive-method interpolation as Python's statistics.quantiles.
func quartiles(xs []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		// statistics.quantiles(method="exclusive"): position p*(n+1), 1-based.
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return med, at(0.25), at(0.75)
}
