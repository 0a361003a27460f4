package cluster

import (
	"repro/internal/hw"
	"repro/internal/sim"
)

// node stands in for per-machine state owned by its own domain.
type node struct {
	Domain int
	inbox  []int64
}

// sendToOwner targets the destination's own state: the closure only touches
// n, and the `to` argument is rooted at n — destination-owned, allowed.
func sendToOwner(ic *hw.Interconnect, p *hw.Proc, n *node, sz int64) {
	ic.Send(p, n.Domain, sz, func() {
		n.inbox = append(n.inbox, sz)
	})
}

// sendValueCopy captures only read-only value copies: allowed.
func sendValueCopy(ic *hw.Interconnect, p *hw.Proc, to int, seq uint64, sink *node) {
	ic.Send(p, to, 1, func() {
		_ = seq
	})
	_ = sink
}

// sendSharedSlice leaks the sender's slice across the domain boundary.
func sendSharedSlice(ic *hw.Interconnect, p *hw.Proc, to int, buf []int64) {
	ic.Send(p, to, int64(len(buf)), func() { // want `crossdomain: closure passed to Interconnect\.Send captures "buf" of type \[\]int64 \(shared mutable state\)`
		buf[0] = 1
	})
}

// sendWrittenValue captures an int by reference and writes it — the write
// aliases the sender's variable even though int is a value type.
func sendWrittenValue(ic *hw.Interconnect, p *hw.Proc, to int) {
	sent := 0
	ic.Send(p, to, 1, func() { // want `crossdomain: closure passed to Interconnect\.Send captures "sent" of type int \(value type, but the closure writes it`
		sent++
	})
	_ = sent
}

// sendAfterLeak: SendAfter is an edge too, and a pointer to a node that is
// NOT the destination is rejected even though some node pointer would be.
func sendAfterLeak(ic *hw.Interconnect, p *hw.Proc, a, b *node) {
	ic.SendAfter(p, a.Domain, 1, 0, func() { // want `crossdomain: closure passed to Interconnect\.SendAfter captures "b"`
		b.inbox = append(b.inbox, 1)
	})
}

// shardedLeak: the raw kernel primitive is covered as well.
func shardedLeak(sh *sim.Sharded, env *sim.Env, to int, counts map[string]int) {
	sh.Send(env, to, 0, func() { // want `crossdomain: closure passed to Sharded\.Send captures "counts"`
		counts["arrived"]++
	})
}

// forwarding: a wrapper passing its own callback parameter through is
// checked at the caller that constructs the literal, not here.
func forwarding(ic *hw.Interconnect, p *hw.Proc, to int, fn func()) {
	ic.Send(p, to, 1, fn)
}

// opaque: a callback the analyzer cannot see into needs a literal or a
// waiver.
func opaque(ic *hw.Interconnect, p *hw.Proc, to int) {
	cb := makeCb()
	ic.Send(p, to, 1, cb) // want `crossdomain: cannot prove the Interconnect\.Send callback is capture-free`
}

func makeCb() func() { return func() {} }

// waived: the request-lifecycle protocol makes the capture safe; the waiver
// records why.
func waived(ic *hw.Interconnect, p *hw.Proc, to int, buf []int64) {
	//lint:owned fixture: delivery happens after the sender stops touching buf
	ic.Send(p, to, 1, func() {
		buf[0] = 2
	})
}

// bareWaiver: a marker without a reason is itself a violation.
func bareWaiver(ic *hw.Interconnect, p *hw.Proc, to int, buf []int64) {
	//lint:owned
	ic.Send(p, to, 1, func() { // want `owned: //lint:owned marker needs a reason`
		buf[0] = 3
	})
}

// A marker on a line with no cross-domain send is stale.
//
//lint:owned the send this excused is long gone // want `stale //lint:owned waiver: no cross-domain send on this line`
func noSendHere() {}
