package httpd

// The /cluster routes: a cluster Server's view of its machines and the
// drain controls. Deploy, invoke and chain are the shared handlers in
// httpd.go.

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/sim"
)

func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
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

// handleMark serves /cluster/drain and /cluster/undrain: it applies mark
// (Boss.Drain or Boss.Undrain) to the worker form value, whose range the
// boss checks, and replies {key: worker}.
func (s *Server) handleMark(key string, mark func(worker int) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v := r.FormValue("worker")
		if v == "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: worker parameter required"))
			return
		}
		worker, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpd: bad worker %q", v))
			return
		}
		s.drive(func(p *sim.Proc) { err = mark(worker) })
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{key: worker})
	}
}
