package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/molecule"
	"repro/internal/sim"
)

// span is one client-side record of a call into a layer's public entry
// point: virtual start and end as the client saw them, plus the breakdown
// the layer returned. Every workload op produces exactly one span.
type span struct {
	ID      int             `json:"id"` // completion order
	Op      string          `json:"op"` // "invoke" or "chain"
	Fn      string          `json:"fn"` // function, or chain stages joined by ">"
	Start   sim.Time        `json:"start_ns"`
	End     sim.Time        `json:"end_ns"`
	Err     string          `json:"err,omitempty"`
	Machine int             `json:"machine"` // cluster worker that served it; -1 off-cluster
	PU      hw.PUID         `json:"pu"`
	Cold    int             `json:"cold"` // cold-started instances
	Startup time.Duration   `json:"startup_ns"`
	Exec    time.Duration   `json:"exec_ns"`
	Handler time.Duration   `json:"handler_ns"`
	Total   time.Duration   `json:"total_ns"` // the layer's own latency figure
	Edges   []time.Duration `json:"edges_ns,omitempty"`
}

// latency is what the client observed, measured from the op's scheduled
// arrival (the call entry) to its return.
func (s *span) latency() time.Duration { return s.End.Sub(s.Start) }

// recorder wraps the entry points of the layer under test and records one
// span per call. It satisfies loadgen.Invoker, so the open-loop generator
// drives it exactly like the target it wraps. All calls arrive from procs
// of one sim domain, so appends need no lock.
type recorder struct {
	rt    *molecule.Runtime // single-machine target, or nil
	boss  *cluster.Boss     // cluster target, or nil
	spans []span
}

var _ loadgen.Invoker = (*recorder)(nil)

func (r *recorder) Invoke(p *sim.Proc, fn string, opts molecule.InvokeOptions) (molecule.Result, error) {
	s := span{Op: "invoke", Fn: fn, Start: p.Now(), Machine: -1, PU: -1}
	var res molecule.Result
	var err error
	if r.boss != nil {
		res, s.Machine, err = r.boss.InvokeDetailed(p, fn, opts)
	} else {
		res, err = r.rt.Invoke(p, fn, opts)
	}
	s.End = p.Now()
	if err != nil {
		s.Err = err.Error()
	} else {
		s.PU, s.Startup, s.Exec, s.Handler, s.Total = res.PU, res.Startup, res.Exec, res.Handler, res.Total
		if res.Cold {
			s.Cold = 1
		}
		if res.Fn != fn {
			s.Err = fmt.Sprintf("result names %q", res.Fn)
		}
	}
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return res, err
}

func (r *recorder) InvokeChain(p *sim.Proc, names []string, opts molecule.ChainOptions) (molecule.ChainResult, error) {
	s := span{Op: "chain", Fn: strings.Join(names, ">"), Start: p.Now(), Machine: -1, PU: -1}
	var res molecule.ChainResult
	var err error
	if r.boss != nil {
		res, err = r.boss.InvokeChain(p, names, opts)
	} else {
		res, err = r.rt.InvokeChain(p, names, opts)
	}
	s.End = p.Now()
	if err != nil {
		s.Err = err.Error()
	} else {
		s.Cold, s.Exec, s.Total, s.Edges = res.ColdStarts, res.ExecTotal, res.Total, res.EdgeLatency
		if len(res.EdgeLatency) != len(names)-1 {
			s.Err = fmt.Sprintf("%d edges for %d stages", len(res.EdgeLatency), len(names))
		}
	}
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return res, err
}

// writeSpans dumps one run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
