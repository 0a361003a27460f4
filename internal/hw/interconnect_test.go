package hw_test

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestInterconnectLookahead: the interconnect registers its base latency as
// the sharded group's lookahead — the BaseLat-as-lookahead argument.
func TestInterconnectLookahead(t *testing.T) {
	sh := sim.NewSharded(2)
	ic := hw.NewInterconnect(sh, hw.Link{
		Kind: hw.LinkNetwork, BaseLat: 50 * time.Microsecond, Bandwith: 1e9,
	})
	if got := sh.Lookahead(); got != 50*time.Microsecond {
		t.Fatalf("lookahead = %v, want 50µs", got)
	}
	if ic.Lookahead() != 50*time.Microsecond {
		t.Fatalf("interconnect lookahead = %v", ic.Lookahead())
	}
	// Transfer time includes the bandwidth term but never undercuts BaseLat.
	if tt := ic.Link().TransferTime(1 << 20); tt <= ic.Lookahead() {
		t.Fatalf("1MiB transfer %v not above base latency", tt)
	}
}

func TestInterconnectZeroBaseLatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-BaseLat interconnect did not panic")
		}
	}()
	hw.NewInterconnect(sim.NewSharded(2), hw.Link{Kind: hw.LinkNetwork})
}

// TestInterconnectSendDelivery: a message between two machines on separate
// domains arrives exactly one transfer time after it was sent, in the
// destination's scheduler context, and the parallel run drains cleanly.
func TestInterconnectSendDelivery(t *testing.T) {
	const payload = 4096
	sh := sim.NewSharded(2)
	link := hw.Link{Kind: hw.LinkNetwork, BaseLat: params.NetworkBaseLatency, Bandwith: params.NetworkBandwidth}
	ic := hw.NewInterconnect(sh, link)

	// Each domain hosts a full machine, proving machines and the
	// interconnect compose: local transfers inside each domain, network
	// sends between them.
	m0 := hw.Build(sh.Domain(0), hw.Config{DPUs: 1})
	_ = hw.Build(sh.Domain(1), hw.Config{DPUs: 1})

	var arrival sim.Time
	var sent sim.Time
	sh.Domain(0).Spawn("sender", func(p *sim.Proc) {
		// Local intra-machine transfer first: domain activity composes
		// with cross-domain sends.
		if _, err := m0.Transfer(p, 0, 1, 1024); err != nil {
			t.Errorf("local transfer: %v", err)
		}
		sent = p.Now()
		ic.Send(p.Env(), 1, payload, func() {
			arrival = sh.Domain(1).Now()
		})
	})
	sh.Run()

	want := sent + sim.Time(link.TransferTime(payload))
	if arrival != want {
		t.Fatalf("arrival at %v, want %v (sent %v + transfer %v)",
			arrival, want, sent, link.TransferTime(payload))
	}
	if sh.LiveProcs() != 0 {
		t.Fatalf("blocked procs after run: %v", sh.BlockedProcs())
	}
}
