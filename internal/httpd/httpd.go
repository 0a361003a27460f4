// Package httpd exposes a simulated Molecule platform over real HTTP: a
// thin REST gateway so the library can be driven like a serverless service
// (deploy, invoke, chains, stats) from curl or any client. Latencies in
// responses are virtual (simulated) times; function outputs are real when
// the workload has a compute body.
//
// A Server fronts one machine (NewServer) or a boss/worker cluster of
// machines (NewClusterServer). The constructor binds the backend once:
// where request drivers run, what runs the simulation to quiescence, how a
// deploy runs and how an invoke names its serving machine. /deploy,
// /invoke and /chain parse their forms and map errors to statuses the same
// way on both; only the route table adds the per-machine reads on one
// machine and the /cluster routes on a cluster.
//
// Requests serialize on the simulation (it is single-threaded by design),
// each running as a fresh driver process in virtual time, so every reply
// reflects a settled simulation.
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
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Server is the REST gateway over one simulated machine or cluster.
type Server struct {
	mu  sync.Mutex
	env *sim.Env        // where request drivers run
	run func() sim.Time // runs the simulation to quiescence

	// deploy makes fn runnable under profiles. invoke runs one call and
	// chain one chain, each inside a driver process.
	deploy func(fn string, profiles []molecule.Profile) error
	invoke func(p *sim.Proc, c *invokeCall)
	chain  func(p *sim.Proc, fns []string, opts molecule.ChainOptions) (molecule.ChainResult, error)

	rt   *molecule.Runtime // the one machine; nil on a cluster
	boss *cluster.Boss     // the cluster; nil on one machine
	obs  *obs.Observer     // nil until EnableObservability or EnableSLO
	host int               // the gateway span's PU
}

// invokeCall is one /invoke as the bound invoke sees it: the function and
// options in, the result and the serving machine (nil on one machine) out.
type invokeCall struct {
	fn      string
	opts    molecule.InvokeOptions
	res     molecule.Result
	machine *int
	err     error
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
	s := &Server{env: env, run: env.Run, chain: rt.InvokeChain, rt: rt, host: int(rt.HostID())}
	s.deploy = func(fn string, profiles []molecule.Profile) (err error) {
		s.drive(func(p *sim.Proc) { err = rt.Deploy(p, fn, profiles...) })
		return err
	}
	s.invoke = func(p *sim.Proc, c *invokeCall) { c.res, c.err = rt.Invoke(p, c.fn, c.opts) }
	return s, nil
}

// NewClusterServer builds a boss fronting `machines` simulated machines,
// each with the given hardware shape and runtime options. Every machine
// has the same PUs, so an invoke's pu names the same PU on each.
func NewClusterServer(machines int, cfg hw.Config, opts molecule.Options) (*Server, error) {
	b, err := cluster.NewBoss(cluster.BossConfig{Machines: machines, HW: cfg, Opts: opts})
	if err != nil {
		return nil, err
	}
	s := &Server{env: b.Env, run: b.Sharded.Run, chain: b.InvokeChain, boss: b}
	s.deploy = func(fn string, profiles []molecule.Profile) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		return b.Register(fn, profiles...)
	}
	s.invoke = func(p *sim.Proc, c *invokeCall) {
		var machine int
		c.res, machine, c.err = b.InvokeDetailed(p, c.fn, c.opts)
		c.machine = &machine
	}
	return s, nil
}

// AttachFaults parses a fault-plan spec (see faults.ParseSpec) and wires the
// resulting plan through every layer of the server's runtime. Times in the
// spec are virtual and measured from the simulation epoch. One machine only.
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
// nothing. One machine only.
func (s *Server) EnableObservability() *obs.Observer {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = obs.New(s.env)
	s.rt.SetObserver(s.obs)
	return s.obs
}

// EnableSLO attaches a latency-objective engine (default objective def) to
// the server's observer, enabling observability first if needed. GET /slo
// serves the engine's scored state; /metrics gains the slo_* gauge
// families. Deploys may override the default per function with the
// slo/slo_target form values. One machine only.
func (s *Server) EnableSLO(def obs.SLOConfig) *obs.SLOEngine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.obs == nil {
		s.obs = obs.New(s.env)
		s.rt.SetObserver(s.obs)
	}
	if s.obs.SLO == nil {
		s.obs.SLO = obs.NewSLOEngine(def)
	}
	return s.obs.SLO
}

// LoadFunctions registers custom JSON-defined workloads (see
// workloads.FunctionSpec). One machine only.
func (s *Server) LoadFunctions(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Registry.LoadJSON(data)
}

// drive runs body as a driver process and the simulation to quiescence,
// serialized against other requests.
func (s *Server) drive(body func(p *sim.Proc)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.env.Spawn("http-driver", body)
	s.run()
}

// Handler returns the HTTP routes: deploy, invoke, chain and the
// experiments on both backends, the machine's reads on one machine, and
// the /cluster routes on a cluster.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /deploy", s.handleDeploy)
	mux.HandleFunc("POST /invoke", s.handleInvoke)
	mux.HandleFunc("POST /chain", s.handleChain)
	mux.HandleFunc("GET /experiments", handleExperiments)
	mux.HandleFunc("POST /experiments/{id}", handleRunExperiment)
	if s.boss != nil {
		mux.HandleFunc("GET /cluster/stats", s.handleClusterStats)
		mux.HandleFunc("POST /cluster/drain", s.handleMark("drained", s.boss.Drain))
		mux.HandleFunc("POST /cluster/undrain", s.handleMark("undrained", s.boss.Undrain))
		return mux
	}
	mux.HandleFunc("GET /functions", s.handleFunctions)
	mux.HandleFunc("GET /stats", s.handleStats)
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
	o := s.obs
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
	if s.obs == nil || s.obs.SLO == nil {
		http.Error(w, "slo engine disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.obs.SLO.WriteJSON(w)
}

// handleTrace serves the recorded span tree as Chrome trace_event JSON
// (loadable in Perfetto or chrome://tracing).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.obs == nil {
		http.Error(w, "observability disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.obs.Tracer.WriteChromeTrace(w)
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
		o := s.obs
		s.mu.Unlock()
		if o == nil || o.SLO == nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: slo engine disabled (EnableSLO / moleculed -slo)"))
			return
		}
		sloCfg = &cfg
	}
	if err := s.deploy(fn, profiles); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if sloCfg != nil {
		s.mu.Lock()
		s.obs.SLO.SetObjective(fn, *sloCfg)
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"deployed": fn, "profiles": r.FormValue("profiles")})
}

// errStatus maps an /invoke or /chain error to its status. Exhausted
// recovery, saturation and no live machine are the platform's fault, not
// the client's: a gateway answers 503 for them and 400 for the rest.
func errStatus(err error) int {
	if errors.Is(err, molecule.ErrUnavailable) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// InvokeResponse is the /invoke reply. Machine names the cluster machine
// that served the request; one machine omits it.
type InvokeResponse struct {
	Fn        string  `json:"fn"`
	PU        int     `json:"pu"`
	Kind      string  `json:"kind"`
	Cold      bool    `json:"cold"`
	StartupMs float64 `json:"startup_ms"`
	ExecMs    float64 `json:"exec_ms"`
	TotalMs   float64 `json:"total_ms"`
	Output    any     `json:"output,omitempty"`
	Machine   *int    `json:"machine,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	fn := r.FormValue("fn")
	if fn == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: fn parameter required"))
		return
	}
	c := &invokeCall{fn: fn, opts: molecule.DefaultInvokeOptions()}
	for _, f := range []struct {
		key string
		dst *int
	}{{"pu", (*int)(&c.opts.PU)}, {"bytes", &c.opts.Arg.Bytes}, {"n", &c.opts.Arg.N}} {
		if v := r.FormValue(f.key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: bad %s %q", f.key, v))
				return
			}
			*f.dst = n
		}
	}
	c.opts.RunBody = r.FormValue("body") == "1"

	s.drive(func(p *sim.Proc) {
		gw := s.obs.Span(nil, "gateway.request", s.host)
		gw.SetAttr("fn", fn)
		c.opts.Span = gw
		s.invoke(p, c)
		gw.Finish()
	})
	if c.err != nil {
		writeErr(w, errStatus(c.err), c.err)
		return
	}
	res := &c.res
	writeJSON(w, http.StatusOK, InvokeResponse{
		Fn: res.Fn, PU: int(res.PU), Kind: res.Kind.String(), Cold: res.Cold,
		StartupMs: ms(res.Startup), ExecMs: ms(res.Exec), TotalMs: ms(res.Total),
		Output: res.Output, Machine: c.machine,
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
	s.drive(func(p *sim.Proc) { res, chErr = s.chain(p, fns, molecule.ChainOptions{}) })
	if chErr != nil {
		writeErr(w, errStatus(chErr), chErr)
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
func handleExperiments(w http.ResponseWriter, r *http.Request) {
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
// server's simulation.
func handleRunExperiment(w http.ResponseWriter, r *http.Request) {
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
