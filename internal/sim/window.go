package sim

// WindowStats describes one completed round of the conservative windowed
// driver: the window's position, how many events each domain fired inside
// it, and the cross-domain message flow delivered at its opening barrier.
//
// Every field is a pure function of virtual time, so a consumer
// accumulating WindowStats sees byte-identical telemetry on every run. That
// is the same determinism contract as the simulation itself, and it is what
// makes the telemetry usable for answering "is lookahead L the bottleneck"
// before scaling out: a domain that fires zero events in a round stalled at
// the barrier waiting for other domains' windows.
type WindowStats struct {
	// Round counts windows executed, starting at 1.
	Round int64
	// Horizon is the global minimum next-event time that opened this
	// window; the window spans [Horizon, Bound).
	Horizon Time
	// Bound is the exclusive end of the window (Horizon + lookahead).
	Bound Time
	// Delivered is the number of cross-domain messages merged at this
	// round's opening barrier.
	Delivered int
	// Events holds the number of events each domain fired inside this
	// window, indexed by domain. The slice is reused between rounds:
	// observers that retain it must copy.
	Events []int
	// Flow is the D×D row-major cross-domain message matrix for this
	// round: Flow[src*D+dst] messages were delivered from domain src to
	// domain dst at the opening barrier. Reused between rounds: copy to
	// retain.
	Flow []int64
}

// WindowObserver receives one callback per windowed round. Implementations
// live above the kernel (internal/obs provides one); sim only defines the
// interface, keeping the layering DAG intact — the kernel never imports
// its observers, observers import the kernel.
//
// WindowRound is called between rounds, on the goroutine that called Run.
// It must not touch the group's Envs.
type WindowObserver interface {
	WindowRound(WindowStats)
}

// SetWindowObserver attaches o to the group (nil detaches). Every round of
// Sharded.Run is reported; a standalone Env has no windows to report.
// With no observer attached the driver's per-round overhead is a single
// nil check — the golden-report fingerprint tests pin that the observed
// and unobserved executions are identical.
func (sh *Sharded) SetWindowObserver(o WindowObserver) {
	sh.winObs = o
	if o != nil && sh.winFlow == nil {
		n := len(sh.doms)
		sh.winFlow = make([]int64, n*n)
	}
}
