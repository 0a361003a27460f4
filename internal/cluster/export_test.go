package cluster

// Readmit clears a machine's down mark after the operator revived it
// (faults.Revive), letting routing use it again.
func (b *Boss) Readmit(worker int) error { return b.mark(worker, func(n *Node) { n.down = false }) }
