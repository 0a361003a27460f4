package httpd

// ClusterServer is the REST facade over a boss/worker cluster: the same
// thin-gateway idea as Server, but fronting cluster.Boss — N simulated
// machines on their own kernel domains behind one scheduler — instead of a
// single runtime. Requests serialize on the cluster simulation; each drive
// runs the sharded kernel to quiescence, so responses always reflect a
// settled cluster.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
)

// ClusterServer is the REST facade over one simulated cluster.
type ClusterServer struct {
	mu   sync.Mutex
	boss *cluster.Boss
}

// NewClusterServer builds a boss fronting `machines` simulated machines,
// each with the given hardware shape and runtime options.
func NewClusterServer(machines int, cfg hw.Config, opts molecule.Options) (*ClusterServer, error) {
	b, err := cluster.NewBoss(cluster.BossConfig{Machines: machines, HW: cfg, Opts: opts})
	if err != nil {
		return nil, err
	}
	return &ClusterServer{boss: b}, nil
}

// Boss exposes the underlying cluster for tests and embedding callers.
func (s *ClusterServer) Boss() *cluster.Boss { return s.boss }

// drive runs body as a client process on the boss domain and drives the
// cluster to quiescence, serialized against other requests.
func (s *ClusterServer) drive(body func(p *sim.Proc)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.boss.Env.Spawn("http-client", func(p *sim.Proc) { body(p) })
	s.boss.Sharded.Run()
}

// Handler returns the HTTP routes.
func (s *ClusterServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /deploy", s.handleDeploy)
	mux.HandleFunc("POST /invoke", s.handleInvoke)
	mux.HandleFunc("POST /chain", s.handleChain)
	mux.HandleFunc("GET /cluster/stats", s.handleStats)
	mux.HandleFunc("POST /cluster/drain", s.handleDrain)
	mux.HandleFunc("POST /cluster/undrain", s.handleUndrain)
	return mux
}

func (s *ClusterServer) handleDeploy(w http.ResponseWriter, r *http.Request) {
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
	s.mu.Lock()
	regErr := s.boss.Register(fn, profiles...)
	s.mu.Unlock()
	if regErr != nil {
		writeErr(w, http.StatusBadRequest, regErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"registered": fn, "profiles": r.FormValue("profiles")})
}

// ClusterInvokeResponse is the cluster /invoke reply: the single-machine
// fields plus which machine served the request.
type ClusterInvokeResponse struct {
	InvokeResponse
	Machine int `json:"machine"`
}

func (s *ClusterServer) handleInvoke(w http.ResponseWriter, r *http.Request) {
	fn := r.FormValue("fn")
	if fn == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: fn parameter required"))
		return
	}
	opts := molecule.DefaultInvokeOptions()
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

	var res molecule.Result
	var machine int
	var invErr error
	s.drive(func(p *sim.Proc) {
		res, machine, invErr = s.boss.InvokeDetailed(p, fn, opts)
	})
	if invErr != nil {
		// Saturation and dead machines are the platform's fault: 503.
		status := http.StatusBadRequest
		if errors.Is(invErr, molecule.ErrUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, invErr)
		return
	}
	writeJSON(w, http.StatusOK, ClusterInvokeResponse{
		InvokeResponse: InvokeResponse{
			Fn: res.Fn, PU: int(res.PU), Kind: res.Kind.String(), Cold: res.Cold,
			StartupMs: ms(res.Startup), ExecMs: ms(res.Exec), TotalMs: ms(res.Total),
		},
		Machine: machine,
	})
}

func (s *ClusterServer) handleChain(w http.ResponseWriter, r *http.Request) {
	raw := r.FormValue("fns")
	if raw == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: fns parameter required"))
		return
	}
	fns := strings.Split(raw, ",")
	var res molecule.ChainResult
	var chErr error
	s.drive(func(p *sim.Proc) { res, chErr = s.boss.InvokeChain(p, fns, molecule.ChainOptions{}) })
	if chErr != nil {
		status := http.StatusBadRequest
		if errors.Is(chErr, molecule.ErrUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, chErr)
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

func (s *ClusterServer) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nodes := make([]map[string]any, 0)
	for _, n := range s.boss.Nodes() {
		nodes = append(nodes, map[string]any{
			"machine":  n.ID(),
			"capacity": n.Capacity(),
			"inflight": n.Inflight(),
			"served":   n.Served(),
			"stolen":   n.Stolen(),
			"down":     n.Down(),
			"draining": n.Draining(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"machines":    nodes,
		"queued":      s.boss.Queued(),
		"queued_peak": s.boss.QueuedPeak(),
		"stolen":      s.boss.Stolen(),
	})
}

// parseWorker reads the worker form value and bounds-checks it against the
// cluster via the boss's own error.
func (s *ClusterServer) parseWorker(r *http.Request) (int, error) {
	v := r.FormValue("worker")
	if v == "" {
		return 0, fmt.Errorf("httpd: worker parameter required")
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("httpd: bad worker %q", v)
	}
	return n, nil
}

func (s *ClusterServer) handleDrain(w http.ResponseWriter, r *http.Request) {
	worker, err := s.parseWorker(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var opErr error
	s.drive(func(p *sim.Proc) { opErr = s.boss.Drain(worker) })
	if opErr != nil {
		writeErr(w, http.StatusBadRequest, opErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"drained": worker})
}

func (s *ClusterServer) handleUndrain(w http.ResponseWriter, r *http.Request) {
	worker, err := s.parseWorker(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var opErr error
	s.drive(func(p *sim.Proc) { opErr = s.boss.Undrain(worker) })
	if opErr != nil {
		writeErr(w, http.StatusBadRequest, opErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"undrained": worker})
}
