package sim

import "sort"

// Cap reports the channel capacity.
func (c *Chan[T]) Cap() int { return c.cap }

// InUse reports the units currently held.
func (r *Resource) InUse() int { return r.inUse }

// TryAcquire obtains a unit without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	return false
}

// Pending reports the number of queued events. An AtSeries counts as one
// event until its last member fires.
func (e *Env) Pending() int { return len(e.events) }

// Pending reports the total number of queued events across domains,
// including undelivered cross-domain messages.
func (sh *Sharded) Pending() int {
	n := 0
	for i, d := range sh.doms {
		n += d.Pending() + len(sh.outbox[i])
	}
	return n
}

// Clocks returns each domain's current virtual time, indexed by domain.
func (sh *Sharded) Clocks() []Time {
	out := make([]Time, len(sh.doms))
	for i, d := range sh.doms {
		out[i] = d.now
	}
	return out
}

// DisableTrace stops recording (the log is kept).
func (e *Env) DisableTrace() { e.tracing = false }

// ClearTrace drops recorded events.
func (e *Env) ClearTrace() { e.trace = nil }

// Closed reports whether the channel has been closed.
func (c *Chan[T]) Closed() bool { return c.closed }

// TraceLog returns the merged trace across domains: entries are ordered by
// virtual time, with ties broken by domain index and, within a domain, by
// emission order. The merge is a pure function of the per-domain logs, so it
// is identical on every run. Workloads that need the merged log to
// also be identical across different domain partitions should keep
// same-instant events on distinct domains disjoint in time (the sharded soak
// stamps each machine a distinct time residue for exactly this reason).
func (sh *Sharded) TraceLog() []TraceEvent {
	if len(sh.doms) == 1 {
		return sh.doms[0].TraceLog()
	}
	total := 0
	for _, d := range sh.doms {
		total += len(d.trace)
	}
	if total == 0 {
		return nil
	}
	out := make([]TraceEvent, 0, total)
	for _, d := range sh.doms {
		out = append(out, d.trace...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}
