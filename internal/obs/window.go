package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/sim"
)

// WindowTelemetry accumulates sim.WindowStats across a sharded run: round
// and horizon progress, per-domain event counts, barrier stalls, and the
// cumulative cross-domain flow matrix. It implements sim.WindowObserver
// (the kernel defines the interface, obs implements it — sim stays below
// obs in the layering DAG).
//
// A barrier stall is a domain-round that fired zero events: the domain had
// nothing inside [horizon, horizon+L) and spent the window blocked on the
// barrier. A high stall ratio means the lookahead is too small for the
// workload's event density — windows are opening faster than domains have
// work — which is exactly the question to answer before scaling a topology
// out. Everything here is virtual-time-deterministic: identical bytes at
// every worker count (a wall-clock stall measure would not be).
//
// The zero value is ready to use; sizes are taken from the first round.
// A nil *WindowTelemetry is safe to pass to Sharded.SetWindowObserver
// indirectly (don't: pass nil WindowObserver instead) but its methods
// no-op like the rest of obs.
type WindowTelemetry struct {
	domains   int
	rounds    int64
	delivered int64
	events    []int64 // per-domain total events
	stalls    []int64 // per-domain zero-event rounds
	flow      []int64 // cumulative D×D src→dst message counts

	first, last sim.Time // horizon at the first and latest round
	haveFirst   bool

	keep int           // max per-round samples retained for WriteChromeTrace
	kept []windowRound // per-round retained samples (copies)
}

// windowRound is one retained round sample (buffers copied out of the
// kernel's reused WindowStats slices).
type windowRound struct {
	round     int64
	horizon   sim.Time
	bound     sim.Time
	delivered int
	events    []int
}

// KeepRounds retains up to max per-round samples for the Perfetto counter
// tracks (WriteChromeTrace). 0 (the default) keeps none — the summary
// counters cost O(domains) memory regardless of run length. Nil-safe.
func (wt *WindowTelemetry) KeepRounds(max int) {
	if wt == nil {
		return
	}
	wt.keep = max
}

// WindowRound implements sim.WindowObserver. The stats' Events and Flow
// slices are the kernel's reused buffers; everything needed later is
// copied here.
func (wt *WindowTelemetry) WindowRound(ws sim.WindowStats) {
	if wt == nil {
		return
	}
	d := len(ws.Events)
	if wt.events == nil {
		wt.domains = d
		wt.events = make([]int64, d)
		wt.stalls = make([]int64, d)
		wt.flow = make([]int64, d*d)
	}
	wt.rounds++
	wt.delivered += int64(ws.Delivered)
	for i, n := range ws.Events {
		wt.events[i] += int64(n)
		if n == 0 {
			wt.stalls[i]++
		}
	}
	for i, n := range ws.Flow {
		wt.flow[i] += n
	}
	if !wt.haveFirst {
		wt.first, wt.haveFirst = ws.Horizon, true
	}
	wt.last = ws.Horizon
	if len(wt.kept) < wt.keep {
		wt.kept = append(wt.kept, windowRound{
			round: ws.Round, horizon: ws.Horizon, bound: ws.Bound,
			delivered: ws.Delivered,
			events:    append([]int(nil), ws.Events...),
		})
	}
}

// Rounds returns the number of windowed rounds observed.
func (wt *WindowTelemetry) Rounds() int64 {
	if wt == nil {
		return 0
	}
	return wt.rounds
}

// Events returns the total events fired inside observed windows.
func (wt *WindowTelemetry) Events() int64 {
	if wt == nil {
		return 0
	}
	var n int64
	for _, e := range wt.events {
		n += e
	}
	return n
}

// Delivered returns the total cross-domain messages observed at barriers.
func (wt *WindowTelemetry) Delivered() int64 {
	if wt == nil {
		return 0
	}
	return wt.delivered
}

// StallRatio returns stalled domain-rounds over total domain-rounds
// (0 with no rounds).
func (wt *WindowTelemetry) StallRatio() float64 {
	if wt == nil || wt.rounds == 0 || wt.domains == 0 {
		return 0
	}
	var stalls int64
	for _, s := range wt.stalls {
		stalls += s
	}
	return float64(stalls) / float64(wt.rounds*int64(wt.domains))
}

// WriteText renders the accumulated telemetry as a fixed-layout summary —
// the `molecule-bench -scenario soak` telemetry section. Deterministic:
// every line is a pure function of virtual-time state.
func (wt *WindowTelemetry) WriteText(w io.Writer) error {
	var b strings.Builder
	b.WriteString("== Sharded-kernel window telemetry ==\n")
	if wt == nil || wt.rounds == 0 {
		b.WriteString("   no windowed rounds observed\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	advance := time.Duration(wt.last - wt.first)
	perRound := time.Duration(0)
	if wt.rounds > 1 {
		perRound = advance / time.Duration(wt.rounds-1)
	}
	var events, stalls int64
	for i := range wt.events {
		events += wt.events[i]
		stalls += wt.stalls[i]
	}
	fmt.Fprintf(&b, "   rounds          %d\n", wt.rounds)
	fmt.Fprintf(&b, "   events          %d (%.1f/window)\n", events, float64(events)/float64(wt.rounds))
	fmt.Fprintf(&b, "   horizon advance %v (%v/round)\n", advance, perRound)
	fmt.Fprintf(&b, "   delivered       %d cross-domain messages\n", wt.delivered)
	fmt.Fprintf(&b, "   barrier stalls  %d/%d domain-rounds (%.1f%%)\n",
		stalls, wt.rounds*int64(wt.domains), 100*wt.StallRatio())
	b.WriteString("   domain  events  ev/round  stalls  stall%\n")
	for i := 0; i < wt.domains; i++ {
		fmt.Fprintf(&b, "   %-6d  %-6d  %-8.1f  %-6d  %.1f%%\n",
			i, wt.events[i], float64(wt.events[i])/float64(wt.rounds),
			wt.stalls[i], 100*float64(wt.stalls[i])/float64(wt.rounds))
	}
	if wt.delivered > 0 {
		b.WriteString("   flow (src->dst messages):\n")
		for src := 0; src < wt.domains; src++ {
			fmt.Fprintf(&b, "   %5d:", src)
			for dst := 0; dst < wt.domains; dst++ {
				fmt.Fprintf(&b, " %6d", wt.flow[src*wt.domains+dst])
			}
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteChromeTrace exports the retained rounds (KeepRounds) as Perfetto
// counter tracks: per-domain events-per-window plus a barrier-delivery
// track, one counter sample per round at the round's horizon. Load
// alongside the span trace to see which domains starve inside each window.
// Nil-safe; with no retained rounds the trace is empty but valid.
func (wt *WindowTelemetry) WriteChromeTrace(w io.Writer) error {
	type counterEvent struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Ts   float64          `json:"ts"`
		Args map[string]int64 `json:"args"`
	}
	type counterFile struct {
		TraceEvents     []counterEvent `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
	}
	file := counterFile{TraceEvents: []counterEvent{}, DisplayTimeUnit: "ms"}
	if wt != nil {
		for _, r := range wt.kept {
			ts := usec(int64(r.horizon))
			for dom, n := range r.events {
				file.TraceEvents = append(file.TraceEvents, counterEvent{
					Name: fmt.Sprintf("window events dom %d", dom),
					Ph:   "C", Pid: 1, Tid: dom + chromeTrackOffset, Ts: ts,
					Args: map[string]int64{"events": int64(n)},
				})
			}
			file.TraceEvents = append(file.TraceEvents, counterEvent{
				Name: "barrier delivered",
				Ph:   "C", Pid: 1, Tid: 0, Ts: ts,
				Args: map[string]int64{"messages": int64(r.delivered)},
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}
