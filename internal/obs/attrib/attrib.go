// Package attrib is the critical-path attribution analyzer: a post-hoc pass
// over an obs span tree that decomposes every invocation's end-to-end
// latency into exhaustive, non-overlapping stages.
//
// The paper's argument (Tab 4, Fig 8, Fig 11) is a latency decomposition —
// serverless latency on heterogeneous hardware is dominated by *where* time
// goes: cold-start fork vs. dependency init vs. nIPC transfer vs. queueing.
// Raw spans can show the tree but not answer "what fraction of p99 is
// queue-wait, per PU kind". This package answers that, with a hard
// invariant: for every invocation, the per-stage durations sum to the root
// span's duration to the nanosecond. Nothing is sampled, nothing is
// estimated, nothing is double-counted.
//
// # Attribution model
//
// Every nanosecond of a root span's interval is attributed to exactly one
// stage by a recursive preemption sweep. Within a parent's interval its
// children are visited in (start, id) order; each child owns
//
//	[max(childStart, cursor), min(childEnd, nextSiblingStart, parentEnd))
//
// so a later-starting sibling clips an earlier one. That rule is what makes
// the decomposition exact under recovery: a timed-out attempt is abandoned,
// not interrupted — its spans keep running in the background and overlap
// the backoff and retry spans that follow. The sweep charges the abandoned
// attempt only up to the instant its successor begins; everything after is
// the successor's. Gaps between children are the parent's self-time and map
// to the parent's own stage (e.g. gateway self-time is queue-wait, the
// sandbox.acquire tail after sandbox.start is dependency init). Open
// (never-finished) spans extend to the parent's clip boundary.
//
// Determinism: the sweep is a pure function of the span snapshot, iterates
// slices in recorded order, and keeps stage totals in fixed arrays — output
// is byte-identical across runs and kernels.
package attrib

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stage is one bucket of the latency taxonomy. Stages are exhaustive and
// non-overlapping: every nanosecond of an invocation lands in exactly one.
type Stage string

const (
	// StageQueueWait is gateway time before the runtime accepts the request
	// (the gateway.request span's self-time).
	StageQueueWait Stage = "queue.wait"
	// StageDispatch is runtime bookkeeping inside the invoke path: warm
	// dispatch, jitter, scheduling — the invoke span's self-time.
	StageDispatch Stage = "dispatch"
	// StagePlacement is the placement policy's PU selection.
	StagePlacement Stage = "placement"
	// StageColdFork is sandbox creation (cfork or plain create).
	StageColdFork Stage = "coldstart.fork"
	// StageColdInit is sandbox start plus dependency import and accelerator
	// image/kernel loading — cold-start time that is not the fork itself.
	StageColdInit Stage = "coldstart.init"
	// StageColdAncestor is zygote-forest start time: the fork from the
	// resolved ancestor template (resolution + cfork + container join).
	// Zero unless the runtime runs with ZygoteTree.
	StageColdAncestor Stage = "coldstart.ancestor"
	// StageColdResidual is the residual package imports a zygote cold
	// start pays beyond its ancestor, plus the function's private tail.
	// The fitter's whole job is moving time out of this bucket.
	StageColdResidual Stage = "coldstart.residual"
	// StageNIPCLocal is reserved for same-PU IPC transfer time. No current
	// span site emits it: local FIFO hops inside chains are not spanned, and
	// remoteCommand only spans cross-link commands. It stays in the taxonomy
	// so chain-edge instrumentation lands in a stable bucket.
	StageNIPCLocal Stage = "nipc.local"
	// StageNIPCCross is nIPC command/transfer time across an interconnect
	// link (XPU-Shim remote commands).
	StageNIPCCross Stage = "nipc.crosslink"
	// StageHandler is function execution on the chosen PU.
	StageHandler Stage = "handler"
	// StageRetryBackoff is recovery overhead: backoff sleeps between
	// attempts plus the recovery wrapper's own bookkeeping.
	StageRetryBackoff Stage = "retry.backoff"
	// StageOther catches spans the taxonomy does not know — a non-zero
	// value here means a new span name needs classifying.
	StageOther Stage = "other"
)

// stageOrder is the canonical presentation order. Index into it is the
// storage index of StageDurations.
var stageOrder = [...]Stage{
	StageQueueWait, StageDispatch, StagePlacement, StageColdFork,
	StageColdInit, StageColdAncestor, StageColdResidual,
	StageNIPCLocal, StageNIPCCross, StageHandler,
	StageRetryBackoff, StageOther,
}

// NumStages is the size of the taxonomy.
const NumStages = len(stageOrder)

func stageIndex(s Stage) int {
	for i, st := range stageOrder {
		if st == s {
			return i
		}
	}
	return NumStages - 1 // other
}

// StageDurations is a fixed per-stage duration vector, indexed in
// canonical stage order. A value type so aggregation is plain addition;
// no map iteration anywhere near the output path.
type StageDurations [NumStages]time.Duration

// Get returns the duration attributed to stage s.
func (sd *StageDurations) Get(s Stage) time.Duration { return sd[stageIndex(s)] }

// Sum returns the total attributed time across all stages.
func (sd *StageDurations) Sum() time.Duration {
	var t time.Duration
	for _, d := range sd {
		t += d
	}
	return t
}

func (sd *StageDurations) add(other *StageDurations) {
	for i, d := range other {
		sd[i] += d
	}
}

// selfStage maps a span name to the stage its *self-time* (interval minus
// children) belongs to. Leaf spans contribute their whole interval here.
func selfStage(name string) Stage {
	switch name {
	case "gateway.request":
		return StageQueueWait
	case "invoke":
		return StageDispatch
	case "invoke.recover", "retry.backoff":
		return StageRetryBackoff
	case "placement":
		return StagePlacement
	case "sandbox.create":
		return StageColdFork
	case "sandbox.acquire", "sandbox.start", "fpga.extend_image", "gpu.load_kernel":
		return StageColdInit
	case "coldstart.ancestor":
		return StageColdAncestor
	case "coldstart.residual":
		return StageColdResidual
	case "nipc.command":
		return StageNIPCCross
	case "handler":
		return StageHandler
	default:
		return StageOther
	}
}

// invocationRoot reports whether a span of this name can head an
// invocation's attribution tree.
func invocationRoot(name string) bool {
	return name == "gateway.request" || name == "invoke.recover" || name == "invoke"
}

// Options configure an analysis.
type Options struct {
	// PUKind names the hardware kind of a PU track (e.g. "CPU", "DPU");
	// nil leaves Invocation.Kind empty. PU -1 (never placed) always yields
	// an empty kind.
	PUKind func(pu int) string
}

// Invocation is one attributed invocation: a root span plus the exhaustive
// stage decomposition of its interval.
type Invocation struct {
	Root obs.Span // the attribution root (gateway.request, invoke.recover, or invoke)
	Win  obs.Span // the winning attempt span (== Root for single-attempt roots)
	Fn   string
	PU   int    // final placement; -1 if the invocation never placed
	Kind string // PU kind via Options.PUKind ("" when unknown)
	Err  bool   // the invocation settled with an error

	Total  time.Duration // Root duration; == Stages.Sum() (the exactness invariant)
	Stages StageDurations
}

// Residue is Total minus the sum of all stages. The exactness invariant is
// Residue() == 0 for every invocation; tests enforce it to the nanosecond.
func (inv *Invocation) Residue() time.Duration { return inv.Total - inv.Stages.Sum() }

// Row is a per-(fn, PU kind) aggregate over invocations.
type Row struct {
	Fn     string
	Kind   string
	Count  int
	Errors int
	Total  time.Duration
	Stages StageDurations
}

// Analysis is the result of attributing one span snapshot.
type Analysis struct {
	Invocations []Invocation

	spans    []obs.Span
	children map[obs.SpanID][]int // span index -> child indices, (start, id)-sorted
	folded   map[string]int64     // folded stack path -> virtual ns (self-time)
}

// Analyze attributes every finished invocation in the span snapshot.
// In-flight roots (still open at snapshot time) are skipped — an unfinished
// interval cannot be decomposed exactly.
func Analyze(spans []obs.Span, opts Options) *Analysis {
	a := &Analysis{
		spans:    spans,
		children: make(map[obs.SpanID][]int, len(spans)),
		folded:   make(map[string]int64),
	}
	byID := make(map[obs.SpanID]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			a.children[p] = append(a.children[p], i)
		}
	}
	for _, kids := range a.children { //lint:unordered in-place per-value sort is commutative over iteration order
		k := kids
		sort.SliceStable(k, func(x, y int) bool {
			sx, sy := &spans[k[x]], &spans[k[y]]
			if sx.Start != sy.Start {
				return sx.Start < sy.Start
			}
			return sx.ID < sy.ID
		})
	}
	for i := range spans {
		s := &spans[i]
		if !invocationRoot(s.Name) || s.Open() {
			continue
		}
		if p := s.Parent; p != 0 {
			if pi, ok := byID[p]; ok && invocationRoot(spans[pi].Name) {
				continue // interior node of a larger invocation tree
			}
		}
		a.Invocations = append(a.Invocations, a.attribute(i, opts))
	}
	return a
}

// attribute extracts the invocation's identity (fn, final PU, error state,
// winning attempt) and runs the preemption sweep from root index ri.
func (a *Analysis) attribute(ri int, opts Options) Invocation {
	root := &a.spans[ri]
	inv := Invocation{Root: *root, Win: *root, PU: -1, Total: time.Duration(root.End.Sub(root.Start))}

	// Identity lives on the topmost runtime invocation span: the root
	// itself, or — under a gateway root — its single invoke/invoke.recover
	// child. Attempts below a recover root carry their own fn/pu/error
	// attrs (an abandoned attempt may even record a pu after settling in
	// the background), so only the topmost span's settled attrs count.
	top := root
	if root.Name == "gateway.request" {
		for _, ci := range a.children[root.ID] {
			if invocationRoot(a.spans[ci].Name) {
				top = &a.spans[ci]
				break
			}
		}
	}
	for _, at := range top.Attrs {
		switch at.Key {
		case "fn":
			inv.Fn = at.Value
		case "pu":
			var pu int
			if _, err := fmt.Sscanf(at.Value, "%d", &pu); err == nil {
				inv.PU = pu
			}
		case "error":
			inv.Err = true
		}
	}
	if inv.Fn == "" { // gateway roots also carry fn; prefer top's but fall back
		for _, at := range root.Attrs {
			if at.Key == "fn" {
				inv.Fn = at.Value
			}
		}
	}
	// The winning attempt under recovery is the settled invoke child that
	// closes the recover root: same end instant, finished, no error.
	inv.Win = *top
	if top.Name == "invoke.recover" && !inv.Err {
		for _, ci := range a.children[top.ID] {
			s := &a.spans[ci]
			if s.Name == "invoke" && !s.Open() && s.End == top.End && !hasAttr(s, "error") {
				inv.Win = *s
			}
		}
	}
	if inv.PU >= 0 && opts.PUKind != nil {
		inv.Kind = opts.PUKind(inv.PU)
	}

	prefix := inv.Fn
	if prefix == "" {
		prefix = "?"
	}
	a.sweep(ri, root.Start, root.End, &inv, prefix+";"+root.Name)
	return inv
}

func hasAttr(s *obs.Span, key string) bool {
	for _, at := range s.Attrs {
		if at.Key == key {
			return true
		}
	}
	return false
}

// sweep attributes [lo, hi) of span index si: children own their effective
// windows (clipped by the cursor, the next sibling, and hi), gaps are the
// span's self-time. Every nanosecond of [lo, hi) is charged exactly once.
func (a *Analysis) sweep(si int, lo, hi sim.Time, inv *Invocation, path string) {
	s := &a.spans[si]
	kids := a.children[s.ID]
	cur := lo
	var self time.Duration
	for ki, ci := range kids {
		c := &a.spans[ci]
		if c.Start >= hi {
			break // fully clipped: started after this window closed
		}
		ce := hi
		if !c.Open() && c.End < ce {
			ce = c.End
		}
		if ki+1 < len(kids) {
			if ns := a.spans[kids[ki+1]].Start; ns < ce {
				ce = ns // a later-starting sibling preempts this one
			}
		}
		cs := c.Start
		if cs < cur {
			cs = cur
		}
		if ce <= cs {
			continue // zero width after clipping
		}
		if cs > cur {
			self += time.Duration(cs.Sub(cur))
		}
		a.sweep(ci, cs, ce, inv, path+";"+c.Name)
		cur = ce
	}
	if hi > cur {
		self += time.Duration(hi.Sub(cur))
	}
	if self > 0 {
		inv.Stages[stageIndex(selfStage(s.Name))] += self
		a.folded[path] += int64(self)
	}
}

// Rows aggregates invocations per (fn, PU kind), sorted by fn then kind.
func (a *Analysis) Rows() []Row {
	type key struct{ fn, kind string }
	agg := make(map[key]*Row)
	for i := range a.Invocations {
		inv := &a.Invocations[i]
		k := key{inv.Fn, inv.Kind}
		r := agg[k]
		if r == nil {
			r = &Row{Fn: inv.Fn, Kind: inv.Kind}
			agg[k] = r
		}
		r.Count++
		if inv.Err {
			r.Errors++
		}
		r.Total += inv.Total
		r.Stages.add(&inv.Stages)
	}
	rows := make([]Row, 0, len(agg))
	for _, r := range agg { //lint:unordered collected then sorted below
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Fn != rows[j].Fn {
			return rows[i].Fn < rows[j].Fn
		}
		return rows[i].Kind < rows[j].Kind
	})
	return rows
}

// BreakdownTable renders the per-(fn, kind) stage decomposition. Stage
// columns that are zero across every row are elided; column choice is a
// pure function of the data, so the table is deterministic.
func (a *Analysis) BreakdownTable() *metrics.Table {
	rows := a.Rows()
	var present [NumStages]bool
	for i := range rows {
		for si, d := range rows[i].Stages {
			if d != 0 {
				present[si] = true
			}
		}
	}
	t := &metrics.Table{
		Title: "Critical-path attribution (per fn x PU kind)",
		Note:  "virtual time; stage columns sum to total exactly",
	}
	t.Header = []string{"fn", "kind", "n", "err", "total"}
	for si, st := range stageOrder {
		if present[si] {
			t.Header = append(t.Header, string(st))
		}
	}
	for i := range rows {
		r := &rows[i]
		cells := []string{
			r.Fn, r.Kind,
			fmt.Sprintf("%d", r.Count), fmt.Sprintf("%d", r.Errors),
			metrics.FmtDur(r.Total),
		}
		for si := range stageOrder {
			if present[si] {
				cells = append(cells, metrics.FmtDur(r.Stages[si]))
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// WriteFolded emits the analysis as a folded-stack profile — one line per
// span path with its aggregate self-time in virtual nanoseconds — the
// input format of flamegraph.pl / inferno / speedscope. Lines are sorted,
// so output is byte-stable.
func (a *Analysis) WriteFolded(w io.Writer) error {
	paths := make([]string, 0, len(a.folded))
	for p := range a.folded { //lint:unordered collected then sorted below
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&b, "%s %d\n", p, a.folded[p])
	}
	_, err := io.WriteString(w, b.String())
	return err
}
