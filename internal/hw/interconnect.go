package hw

// Cross-machine interconnect for sharded simulations.
//
// When a simulation spans several machines, each machine's event activity is
// independent except for messages that physically traverse the network
// between them — and those messages always pay at least the link's base
// latency in flight. That base latency is therefore a conservative lookahead
// window for parallel simulation: a machine can execute up to lookahead
// virtual time past the global horizon without any risk of an unseen
// cross-machine message landing inside the window. Interconnect packages
// that argument: it registers its link's BaseLat as the sharded group's
// lookahead and is the only sanctioned way to schedule work across domains.

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Interconnect is the network between the machines (domains) of a sharded
// simulation. It is the cross-shard scheduling edge: every cross-machine
// message travels over the same Link, pays its full transfer time, and is
// delivered at the destination domain's next conservative barrier in
// deterministic order.
type Interconnect struct {
	sh   *sim.Sharded
	link Link
}

// NewInterconnect binds a cross-machine link to a sharded group and
// registers the link's base latency as the group's lookahead — the
// conservative window within which domains may run in parallel. The link
// must have a positive BaseLat: a zero-latency interconnect admits no
// lookahead (and a group without one cannot run), and in the hardware model
// every network hop has a base cost anyway.
func NewInterconnect(sh *sim.Sharded, l Link) *Interconnect {
	if l.BaseLat <= 0 {
		panic("hw: interconnect link needs a positive BaseLat (it is the sharded lookahead)")
	}
	sh.LimitLookahead(l.BaseLat)
	return &Interconnect{sh: sh, link: l}
}

// Link returns the interconnect's link parameters.
func (ic *Interconnect) Link() Link { return ic.link }

// Lookahead returns the conservative window the interconnect grants: the
// link's base latency.
func (ic *Interconnect) Lookahead() time.Duration { return ic.link.BaseLat }

// Send transmits an n-byte message from the machine on domain `from` to
// domain `to`, scheduling fn there in scheduler context after the link's
// transfer time. The transfer time is at least the link's base latency —
// the group lookahead — so the conservative driver can always honor it; the
// message is merged at the next barrier in deterministic (arrival time,
// source domain, source sequence) order. fn runs on the destination domain
// and must touch only that domain's state.
func (ic *Interconnect) Send(from *sim.Env, to int, n int, fn func()) {
	if n < 0 {
		panic(fmt.Sprintf("hw: negative interconnect payload size %d", n))
	}
	ic.sh.Send(from, to, ic.link.TransferTime(n), fn)
}

// SendAfter is Send with extra source-side latency (serialization, queueing)
// added on top of the link transfer time. extra must be non-negative.
func (ic *Interconnect) SendAfter(from *sim.Env, to int, n int, extra time.Duration, fn func()) {
	if extra < 0 {
		panic("hw: negative extra latency in interconnect SendAfter")
	}
	ic.sh.Send(from, to, ic.link.TransferTime(n)+extra, fn)
}
