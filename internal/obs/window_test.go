package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

// feedRounds drives wt with two rounds through ONE reused stats buffer —
// the same aliasing the kernel's hot loop produces — so any missing copy
// shows up as corrupted totals.
func feedRounds(wt *WindowTelemetry) {
	events := []int{3, 0}
	flow := []int64{0, 2, 1, 0}
	wt.WindowRound(sim.WindowStats{Round: 1, Horizon: 0, Bound: 1000, Delivered: 3, Events: events, Flow: flow})
	events[0], events[1] = 0, 5 // kernel reuses the buffers next round
	flow[1], flow[2] = 4, 0
	wt.WindowRound(sim.WindowStats{Round: 2, Horizon: 1000, Bound: 2000, Delivered: 4, Events: events, Flow: flow})
}

func TestWindowTelemetryAccumulates(t *testing.T) {
	wt := &WindowTelemetry{}
	feedRounds(wt)

	if wt.Rounds() != 2 || wt.Delivered() != 7 {
		t.Fatalf("rounds/delivered = %d/%d, want 2/7", wt.Rounds(), wt.Delivered())
	}
	// Domain 0 fired 3 then 0 (one stall); domain 1 fired 0 (stall) then 5.
	// 2 stalled domain-rounds out of 4.
	if got := wt.StallRatio(); got != 0.5 {
		t.Fatalf("stall ratio = %v, want 0.5", got)
	}
	if wt.events[0] != 3 || wt.events[1] != 5 {
		t.Fatalf("per-domain events = %v; reused buffer leaked through", wt.events)
	}
	if wt.flow[0*2+1] != 6 || wt.flow[1*2+0] != 1 {
		t.Fatalf("flow matrix = %v", wt.flow)
	}
}

// TestWindowTelemetryText pins the soak scenario's telemetry section bytes.
func TestWindowTelemetryText(t *testing.T) {
	wt := &WindowTelemetry{}
	feedRounds(wt)
	var buf bytes.Buffer
	if err := wt.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== Sharded-kernel window telemetry ==",
		"rounds          2",
		"events          8 (4.0/window)",
		"delivered       7 cross-domain messages",
		"barrier stalls  2/4 domain-rounds (50.0%)",
		"flow (src->dst messages):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry text missing %q:\n%s", want, out)
		}
	}
	// Determinism: identical feed, identical bytes.
	wt2 := &WindowTelemetry{}
	feedRounds(wt2)
	var buf2 bytes.Buffer
	wt2.WriteText(&buf2)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("telemetry text differs across identical runs")
	}

	// Empty and nil cases render the placeholder, not garbage.
	var empty WindowTelemetry
	var buf3 bytes.Buffer
	if err := empty.WriteText(&buf3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf3.String(), "no windowed rounds observed") {
		t.Errorf("empty telemetry text = %q", buf3.String())
	}
	var nilWT *WindowTelemetry
	if err := nilWT.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowTelemetryChromeTrace: retained rounds export as Perfetto
// counter tracks — one sample per (domain, round) plus the barrier track.
func TestWindowTelemetryChromeTrace(t *testing.T) {
	wt := &WindowTelemetry{}
	wt.KeepRounds(1) // retain only the first round
	feedRounds(wt)
	var buf bytes.Buffer
	if err := wt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			Tid  int              `json:"tid"`
			Ts   float64          `json:"ts"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome trace invalid JSON: %v", err)
	}
	if len(file.TraceEvents) != 3 { // 2 domain tracks + 1 barrier track
		t.Fatalf("events = %d, want 3", len(file.TraceEvents))
	}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "C" {
			t.Errorf("event %q phase = %q, want C", ev.Name, ev.Ph)
		}
	}
	if file.TraceEvents[0].Args["events"] != 3 {
		t.Errorf("dom 0 counter = %v, want 3", file.TraceEvents[0].Args)
	}
	if last := file.TraceEvents[2]; last.Name != "barrier delivered" || last.Args["messages"] != 3 {
		t.Errorf("barrier event = %+v", last)
	}

	// Nil telemetry still writes a valid empty trace.
	var nilWT *WindowTelemetry
	var buf2 bytes.Buffer
	if err := nilWT.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(buf2.Bytes(), &v); err != nil {
		t.Fatalf("nil trace invalid JSON: %v", err)
	}
}
