// Package httpd exposes a simulated Molecule platform over real HTTP: a
// thin REST facade so the library can be driven like a serverless service
// (deploy, invoke, chains, stats) from curl or any client. Latencies in
// responses are virtual (simulated) times; function outputs are real when
// the workload has a compute body.
//
// One simulation environment backs the server; requests serialize on it
// (the environment is single-threaded by design), each running as a fresh
// driver process in virtual time.
package httpd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Server is the REST facade over one simulated machine.
type Server struct {
	mu  sync.Mutex
	env *sim.Env
	rt  *molecule.Runtime
}

// NewServer builds the simulated machine and its Molecule runtime.
func NewServer(cfg hw.Config, opts molecule.Options) (*Server, error) {
	env := sim.NewEnv()
	m := hw.Build(env, cfg)
	var rt *molecule.Runtime
	var err error
	env.Spawn("boot", func(p *sim.Proc) {
		rt, err = molecule.New(p, m, workloads.NewRegistry(), opts)
	})
	env.Run()
	if err != nil {
		return nil, err
	}
	return &Server{env: env, rt: rt}, nil
}

// AttachFaults parses a fault-plan spec (see faults.ParseSpec) and wires the
// resulting plan through every layer of the server's runtime. Times in the
// spec are virtual and measured from the simulation epoch.
func (s *Server) AttachFaults(seed uint64, spec string) error {
	pl := faults.NewPlan(s.env, seed)
	if err := faults.ParseSpec(pl, spec); err != nil {
		return err
	}
	s.rt.AttachFaults(pl)
	return nil
}

// EnableObservability attaches a span tracer and metrics registry to the
// server's runtime and returns it. /metrics and /trace serve its state;
// without this call both endpoints return 404 and invocations record
// nothing.
func (s *Server) EnableObservability() *obs.Observer {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := obs.New(s.env)
	s.rt.SetObserver(o)
	return o
}

// EnableSLO attaches a latency-objective engine (default objective def) to
// the server's observer, enabling observability first if needed. GET /slo
// serves the engine's scored state; /metrics gains the slo_* gauge
// families. Deploys may override the default per function with the
// slo/slo_target form values.
func (s *Server) EnableSLO(def obs.SLOConfig) *obs.SLOEngine {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.rt.Observer()
	if o == nil {
		o = obs.New(s.env)
		s.rt.SetObserver(o)
	}
	if o.SLO == nil {
		o.SLO = obs.NewSLOEngine(def)
	}
	return o.SLO
}

// LoadFunctions registers custom JSON-defined workloads (see
// workloads.FunctionSpec).
func (s *Server) LoadFunctions(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Registry.LoadJSON(data)
}

// drive runs body as a driver process to completion, serialized against
// other requests.
func (s *Server) drive(body func(p *sim.Proc)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.env.Spawn("http-driver", func(p *sim.Proc) { body(p) })
	s.env.Run()
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /deploy", s.handleDeploy)
	mux.HandleFunc("POST /invoke", s.handleInvoke)
	mux.HandleFunc("POST /chain", s.handleChain)
	mux.HandleFunc("GET /functions", s.handleFunctions)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("POST /experiments/{id}", s.handleRunExperiment)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /slo", s.handleSLO)
	return mux
}

// handleMetrics serves the metrics registry in the Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.rt.Observer()
	if o == nil {
		http.Error(w, "observability disabled", http.StatusNotFound)
		return
	}
	o.SLO.Export(o.Metrics) // nil-safe; mirrors SLO state into slo_* gauges
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	o.Metrics.WritePrometheus(w)
}

// handleSLO serves the latency-objective engine's scored state as JSON:
// per-function attainment, error-budget burn, and sketch quantiles. 404
// until EnableSLO is called.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.rt.Observer()
	if o == nil || o.SLO == nil {
		http.Error(w, "slo engine disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	o.SLO.WriteJSON(w)
}

// handleTrace serves the recorded span tree as Chrome trace_event JSON
// (loadable in Perfetto or chrome://tracing).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.rt.Observer()
	if o == nil {
		http.Error(w, "observability disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	o.Tracer.WriteChromeTrace(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// parseProfiles maps "cpu,dpu,fpga,gpu" to profiles.
func parseProfiles(s string) ([]molecule.Profile, error) {
	if s == "" {
		return nil, nil
	}
	var out []molecule.Profile
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "cpu":
			out = append(out, molecule.DefaultProfile(hw.CPU))
		case "dpu":
			out = append(out, molecule.DefaultProfile(hw.DPU))
		case "fpga":
			out = append(out, molecule.DefaultProfile(hw.FPGA))
		case "gpu":
			out = append(out, molecule.DefaultProfile(hw.GPU))
		case "":
		default:
			return nil, fmt.Errorf("httpd: unknown profile %q", part)
		}
	}
	return out, nil
}

func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	fn := r.FormValue("fn")
	if fn == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: fn parameter required"))
		return
	}
	profiles, err := parseProfiles(r.FormValue("profiles"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var sloCfg *obs.SLOConfig
	if v := r.FormValue("slo"); v != "" {
		obj, err := time.ParseDuration(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: bad slo %q: %w", v, err))
			return
		}
		cfg := obs.SLOConfig{Objective: obj, Target: 0.999}
		if tv := r.FormValue("slo_target"); tv != "" {
			t, err := strconv.ParseFloat(tv, 64)
			if err != nil || t <= 0 || t > 1 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: bad slo_target %q", tv))
				return
			}
			cfg.Target = t
		}
		s.mu.Lock()
		o := s.rt.Observer()
		s.mu.Unlock()
		if o == nil || o.SLO == nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: slo engine disabled (EnableSLO / moleculed -slo)"))
			return
		}
		sloCfg = &cfg
	}
	var depErr error
	s.drive(func(p *sim.Proc) { depErr = s.rt.Deploy(p, fn, profiles...) })
	if depErr != nil {
		writeErr(w, http.StatusBadRequest, depErr)
		return
	}
	if sloCfg != nil {
		s.mu.Lock()
		if o := s.rt.Observer(); o != nil {
			o.SLO.SetObjective(fn, *sloCfg)
		}
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"deployed": fn, "profiles": r.FormValue("profiles")})
}

// InvokeResponse is the /invoke reply.
type InvokeResponse struct {
	Fn        string  `json:"fn"`
	PU        int     `json:"pu"`
	Kind      string  `json:"kind"`
	Cold      bool    `json:"cold"`
	StartupMs float64 `json:"startup_ms"`
	ExecMs    float64 `json:"exec_ms"`
	TotalMs   float64 `json:"total_ms"`
	Output    any     `json:"output,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	fn := r.FormValue("fn")
	if fn == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: fn parameter required"))
		return
	}
	opts := molecule.DefaultInvokeOptions()
	if v := r.FormValue("pu"); v != "" {
		pu, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: bad pu %q", v))
			return
		}
		opts.PU = hw.PUID(pu)
	}
	if v := r.FormValue("bytes"); v != "" {
		b, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: bad bytes %q", v))
			return
		}
		opts.Arg.Bytes = b
	}
	if v := r.FormValue("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: bad n %q", v))
			return
		}
		opts.Arg.N = n
	}
	opts.RunBody = r.FormValue("body") == "1"

	var res molecule.Result
	var invErr error
	s.drive(func(p *sim.Proc) {
		gw := s.rt.Observer().Span(nil, "gateway.request", int(s.rt.HostID()))
		gw.SetAttr("fn", fn)
		opts.Span = gw
		res, invErr = s.rt.Invoke(p, fn, opts)
		gw.Finish()
	})
	if invErr != nil {
		// Exhausted recovery (timeouts, crashed PUs) is the platform's
		// fault, not the client's: a gateway answers 503, not 400.
		status := http.StatusBadRequest
		if errors.Is(invErr, molecule.ErrUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, invErr)
		return
	}
	writeJSON(w, http.StatusOK, InvokeResponse{
		Fn: res.Fn, PU: int(res.PU), Kind: res.Kind.String(), Cold: res.Cold,
		StartupMs: ms(res.Startup), ExecMs: ms(res.Exec), TotalMs: ms(res.Total),
		Output: res.Output,
	})
}

// ChainResponse is the /chain reply.
type ChainResponse struct {
	Fns        []string  `json:"fns"`
	TotalMs    float64   `json:"total_ms"`
	EdgeMs     []float64 `json:"edge_ms"`
	ColdStarts int       `json:"cold_starts"`
}

func (s *Server) handleChain(w http.ResponseWriter, r *http.Request) {
	raw := r.FormValue("fns")
	if raw == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: fns parameter required"))
		return
	}
	fns := strings.Split(raw, ",")
	var res molecule.ChainResult
	var chErr error
	s.drive(func(p *sim.Proc) { res, chErr = s.rt.InvokeChain(p, fns, molecule.ChainOptions{}) })
	if chErr != nil {
		writeErr(w, http.StatusBadRequest, chErr)
		return
	}
	edges := make([]float64, len(res.EdgeLatency))
	for i, e := range res.EdgeLatency {
		edges[i] = ms(e)
	}
	writeJSON(w, http.StatusOK, ChainResponse{
		Fns: fns, TotalMs: ms(res.Total), EdgeMs: edges, ColdStarts: res.ColdStarts,
	})
}

func (s *Server) handleFunctions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"functions": s.rt.Registry.Names()})
}

// handleExperiments lists the paper's reproducible experiments.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type exp struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Paper string `json:"paper"`
	}
	var out []exp
	for _, e := range bench.All() {
		out = append(out, exp{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// handleRunExperiment runs one experiment and returns its tables as JSON.
// Experiments build their own simulated machines, so they do not touch the
// server's runtime state.
func (s *Server) handleRunExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := bench.ByID(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpd: no experiment %q", id))
		return
	}
	type table struct {
		Title  string     `json:"title"`
		Note   string     `json:"note,omitempty"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	var tables []table
	for _, t := range e.Run() {
		tables = append(tables, table{Title: t.Title, Note: t.Note, Header: t.Header, Rows: t.Rows})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": e.ID, "title": e.Title, "paper": e.Paper, "tables": tables,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pus := make([]map[string]any, 0)
	for _, n := range s.rt.Snapshot() {
		entry := map[string]any{
			"id": int(n.PU), "kind": n.Kind.String(), "name": n.Name,
			"capacity": n.Capacity, "live": n.Live,
			"executor_alive": n.ExecutorAlive,
		}
		if len(n.WarmPerFunc) > 0 {
			entry["warm"] = n.WarmPerFunc
		}
		if len(n.FPGAImage) > 0 {
			entry["fpga_image"] = n.FPGAImage
		}
		pus = append(pus, entry)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"virtual_time":   s.env.Now().String(),
		"pus":            pus,
		"capacity":       s.rt.Capacity(),
		"live_instances": s.rt.LiveInstances(),
		"billed_units":   s.rt.Billing().Total(),
		"invocations":    s.rt.Billing().Count(),
	})
}
