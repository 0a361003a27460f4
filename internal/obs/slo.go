package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// SLOConfig is one latency objective: at least Target of requests must
// complete within Objective.
type SLOConfig struct {
	Objective time.Duration
	Target    float64 // attainment target in (0, 1], e.g. 0.999
}

// sloSeries is the per-function objective state: request/violation counts
// plus the full latency sketch.
type sloSeries struct {
	cfg    SLOConfig
	hasCfg bool // explicit objective vs. engine default
	total  int64
	good   int64
	sketch Sketch
}

// SLOEngine tracks per-deployment latency objectives over virtual time:
// attainment, error-budget burn, and deterministic quantile sketches. It is
// the scoring function for policy comparison — two runs produce
// byte-identical WriteJSON output for the same observed latencies. A nil
// *SLOEngine no-ops; Observer.RecordSLO guards it so the detached fast path
// stays allocation-free.
type SLOEngine struct {
	def    SLOConfig
	series map[string]*sloSeries
}

// NewSLOEngine returns an engine applying def to every function that has no
// explicit objective.
func NewSLOEngine(def SLOConfig) *SLOEngine {
	return &SLOEngine{def: def, series: make(map[string]*sloSeries)}
}

// SetObjective sets fn's latency objective, replacing the default.
// Nil-safe.
func (e *SLOEngine) SetObjective(fn string, cfg SLOConfig) {
	if e == nil {
		return
	}
	s := e.get(fn)
	s.cfg = cfg
	s.hasCfg = true
}

// Objective returns fn's effective objective.
func (e *SLOEngine) Objective(fn string) SLOConfig {
	if e == nil {
		return SLOConfig{}
	}
	if s, ok := e.series[fn]; ok && s.hasCfg {
		return s.cfg
	}
	return e.def
}

func (e *SLOEngine) get(fn string) *sloSeries {
	s, ok := e.series[fn]
	if !ok {
		s = &sloSeries{cfg: e.def}
		e.series[fn] = s
	}
	return s
}

// Record feeds one settled invocation's end-to-end latency. Nil-safe.
func (e *SLOEngine) Record(fn string, d time.Duration) {
	if e == nil {
		return
	}
	s := e.get(fn)
	s.total++
	if d <= s.cfg.Objective {
		s.good++
	}
	s.sketch.Observe(d)
}

// SLOStatus is one function's scored objective, the unit of the /slo JSON
// view and of the policy tournament's scoring.
type SLOStatus struct {
	Fn          string  `json:"fn"`
	ObjectiveMS float64 `json:"objective_ms"`
	Target      float64 `json:"target"`
	Requests    int64   `json:"requests"`
	Violations  int64   `json:"violations"`
	Attainment  float64 `json:"attainment"`
	// BurnRate is the error-budget burn: the violation rate divided by the
	// budgeted violation rate (1 - target). 1.0 burns the budget exactly;
	// above 1 the objective is being missed.
	BurnRate float64 `json:"error_budget_burn"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	P99MS    float64 `json:"p99_ms"`
	MaxMS    float64 `json:"max_ms"`
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Status returns every tracked function's scored objective, sorted by
// function name.
func (e *SLOEngine) Status() []SLOStatus {
	if e == nil {
		return nil
	}
	names := make([]string, 0, len(e.series))
	for fn := range e.series { //lint:unordered collected then sorted below
		names = append(names, fn)
	}
	sort.Strings(names)
	out := make([]SLOStatus, 0, len(names))
	for _, fn := range names {
		s := e.series[fn]
		st := SLOStatus{
			Fn:          fn,
			ObjectiveMS: msf(s.cfg.Objective),
			Target:      s.cfg.Target,
			Requests:    s.total,
			Violations:  s.total - s.good,
			P50MS:       msf(s.sketch.Quantile(0.50)),
			P90MS:       msf(s.sketch.Quantile(0.90)),
			P99MS:       msf(s.sketch.Quantile(0.99)),
			MaxMS:       msf(s.sketch.Max()),
		}
		if s.total > 0 {
			st.Attainment = float64(s.good) / float64(s.total)
			if budget := 1 - s.cfg.Target; budget > 0 {
				st.BurnRate = (1 - st.Attainment) / budget
			}
		}
		out = append(out, st)
	}
	return out
}

// sloView is the WriteJSON document.
type sloView struct {
	Default struct {
		ObjectiveMS float64 `json:"objective_ms"`
		Target      float64 `json:"target"`
	} `json:"default"`
	Functions []SLOStatus `json:"functions"`
}

// WriteJSON renders the engine as the GET /slo document: the default
// objective plus every function's status, sorted by name — deterministic
// byte-for-byte for a given observation multiset. Nil-safe (writes an
// empty document).
func (e *SLOEngine) WriteJSON(w io.Writer) error {
	var v sloView
	v.Functions = []SLOStatus{}
	if e != nil {
		v.Default.ObjectiveMS = msf(e.def.Objective)
		v.Default.Target = e.def.Target
		v.Functions = e.Status()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&v)
}

// Export mirrors the engine into a metrics registry as gauge families
// (slo_requests, slo_violations, slo_attainment_ratio,
// slo_error_budget_burn, labeled by fn), so /metrics scrapes see SLO state
// alongside the raw counters. Call before rendering; values are replaced,
// never accumulated. Nil-safe.
func (e *SLOEngine) Export(r *Registry) {
	if e == nil || r == nil {
		return
	}
	r.SetHelp("slo_requests", "Invocations scored against the function's latency objective.")
	r.SetHelp("slo_violations", "Invocations that missed the function's latency objective.")
	r.SetHelp("slo_attainment_ratio", "Fraction of invocations meeting the objective.")
	r.SetHelp("slo_error_budget_burn", "Violation rate over budgeted rate (1-target); >1 is out of budget.")
	for _, st := range e.Status() {
		fl := L("fn", st.Fn)
		r.Gauge("slo_requests", fl).Set(float64(st.Requests))
		r.Gauge("slo_violations", fl).Set(float64(st.Violations))
		r.Gauge("slo_attainment_ratio", fl).Set(st.Attainment)
		r.Gauge("slo_error_budget_burn", fl).Set(st.BurnRate)
	}
}
