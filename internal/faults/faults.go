// Package faults provides deterministic, virtual-time fault injection for
// the Molecule reproduction.
//
// Molecule's defining constraint is that every PU runs an independent OS
// with no shared kernel (§3, §5 of the paper), which makes partial failure —
// a DPU crash, a degraded PCIe link, a failed cfork — a first-class scenario
// rather than a whole-machine event. A Plan expresses those scenarios as
// data: PU crash windows, link partitions and latency inflations over
// intervals of virtual time, and probabilistic sandbox-create / fork /
// handler failures drawn from a seeded PRNG.
//
// The layers below the serverless runtime each consume the Plan through a
// small, locally declared interface (hw.FaultInjector, localos.FaultInjector,
// sandbox.FaultInjector, xpu.FaultView), so no package below faults imports
// it; one Plan value satisfies all of them. With no plan attached every hook
// is a nil check — the no-fault path is byte-identical to a build without
// fault injection, which is what keeps the golden experiment report stable.
//
// Determinism: windows are evaluated against the sim.Env clock and the PRNG
// is a splitmix64 stream seeded at construction, so a fixed seed plus a
// fixed workload reproduces the exact same failures — the property the
// chaos soak test asserts bit-for-bit.
package faults

import (
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Sentinel errors, matched with errors.Is by the recovery layer.
var (
	// ErrPUDown marks an operation against a crashed processing unit.
	ErrPUDown = errors.New("faults: processing unit down")
	// ErrPartitioned marks a transfer over a partitioned link.
	ErrPartitioned = errors.New("faults: link partitioned")
	// ErrInjected marks a probabilistic injected failure (sandbox create,
	// fork, or handler crash).
	ErrInjected = errors.New("faults: injected failure")
)

// Window is a half-open interval of virtual time [From, To). To == 0 means
// open-ended (the fault persists until revived or forever).
type Window struct {
	From, To sim.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool {
	return t >= w.From && (w.To == 0 || t < w.To)
}

// linkWindow is one fault interval on a link: a partition drops transfers,
// an inflation factor > 1 stretches their latency.
type linkWindow struct {
	Window
	inflate   float64
	partition bool
}

// Plan is a deterministic fault schedule bound to one simulation
// environment. The zero value is unusable; construct with NewPlan.
//
// Plans are driven from within the single-threaded simulation, so no
// locking is needed — the same discipline as every other sim component.
type Plan struct {
	env *sim.Env
	rng uint64

	crashes map[hw.PUID][]Window
	links   map[[2]hw.PUID][]linkWindow

	// CreateFailProb is the probability that one sandbox creation fails
	// (injected at sandbox.ContainerRuntime.Create).
	CreateFailProb float64
	// ForkFailProb is the probability that one OS-level fork fails
	// (injected at localos.OS.Fork — the cfork path).
	ForkFailProb float64
	// HandlerFailProb is the probability that one handler invocation
	// crashes (injected by the Molecule runtime before handler dispatch).
	HandlerFailProb float64

	// Obs, when non-nil, counts every injected fault in
	// faults_injected_total{kind=...}. Nil costs nothing.
	Obs *obs.Observer
}

// NewPlan returns an empty fault plan reading env's virtual clock, with the
// probabilistic stream seeded by seed.
func NewPlan(env *sim.Env, seed uint64) *Plan {
	return &Plan{
		env:     env,
		rng:     seed,
		crashes: make(map[hw.PUID][]Window),
		links:   make(map[[2]hw.PUID][]linkWindow),
	}
}

// count records one injected fault of the given kind.
func (pl *Plan) count(kind string) {
	if pl.Obs != nil {
		pl.Obs.Counter("faults_injected_total", obs.L("kind", kind)).Inc()
	}
}

// roll draws the next value in [0, 1) from the seeded splitmix64 stream.
func (pl *Plan) roll() float64 {
	z := sim.SplitMix64(pl.rng)
	pl.rng += 0x9e3779b97f4a7c15
	return float64(z>>11) / (1 << 53)
}

// linkKey normalizes an undirected link endpoint pair.
func linkKey(a, b hw.PUID) [2]hw.PUID {
	if b < a {
		a, b = b, a
	}
	return [2]hw.PUID{a, b}
}

// --- schedule construction --------------------------------------------------

// CrashPU schedules PU id down over [from, to) of virtual time; to == 0
// keeps it down forever (or until Revive).
func (pl *Plan) CrashPU(id hw.PUID, from, to sim.Time) {
	pl.crashes[id] = append(pl.crashes[id], Window{From: from, To: to})
}

// Kill crashes PU id now, open-ended — the dynamic form used by chaos
// controllers. Killing an already-down PU is a no-op.
func (pl *Plan) Kill(id hw.PUID) {
	if pl.Down(id) {
		return
	}
	pl.crashes[id] = append(pl.crashes[id], Window{From: pl.env.Now()})
	pl.count("pu_crash")
}

// Revive closes PU id's open crash window at the current virtual time.
// Reviving a PU that is not down is a no-op.
func (pl *Plan) Revive(id hw.PUID) {
	now := pl.env.Now()
	ws := pl.crashes[id]
	for i := range ws {
		if ws[i].Contains(now) {
			ws[i].To = now
		}
	}
}

// PartitionLink schedules the (undirected) link a<->b to drop all transfers
// over [from, to); to == 0 partitions it forever.
func (pl *Plan) PartitionLink(a, b hw.PUID, from, to sim.Time) {
	k := linkKey(a, b)
	pl.links[k] = append(pl.links[k], linkWindow{Window: Window{From: from, To: to}, partition: true})
}

// InflateLink schedules the link a<->b to stretch transfer latency by
// factor (> 1) over [from, to) — a degraded PCIe link.
func (pl *Plan) InflateLink(a, b hw.PUID, factor float64, from, to sim.Time) {
	if factor < 1 {
		factor = 1
	}
	k := linkKey(a, b)
	pl.links[k] = append(pl.links[k], linkWindow{Window: Window{From: from, To: to}, inflate: factor})
}

// --- fault queries (the hook interfaces) ------------------------------------

// Down reports whether PU id is crashed at the current virtual time.
// Implements xpu.FaultView and the Molecule runtime's placement check.
func (pl *Plan) Down(id hw.PUID) bool {
	now := pl.env.Now()
	for _, w := range pl.crashes[id] {
		if w.Contains(now) {
			return true
		}
	}
	return false
}

// TransferFault vets a transfer between a and b at the current virtual
// time: a crashed endpoint or partitioned link fails it; active inflation
// windows stretch it. Implements hw.FaultInjector.
func (pl *Plan) TransferFault(a, b hw.PUID) (float64, error) {
	if pl.Down(a) {
		pl.count("transfer_pu_down")
		return 1, fmt.Errorf("transfer %d->%d: PU %d: %w", a, b, a, ErrPUDown)
	}
	if pl.Down(b) {
		pl.count("transfer_pu_down")
		return 1, fmt.Errorf("transfer %d->%d: PU %d: %w", a, b, b, ErrPUDown)
	}
	now := pl.env.Now()
	inflate := 1.0
	for _, lw := range pl.links[linkKey(a, b)] {
		if !lw.Contains(now) {
			continue
		}
		if lw.partition {
			pl.count("partition")
			return 1, fmt.Errorf("transfer %d->%d: %w", a, b, ErrPartitioned)
		}
		if lw.inflate > inflate {
			inflate = lw.inflate
		}
	}
	if inflate > 1 {
		pl.count("link_inflate")
	}
	return inflate, nil
}

// CreateFault rolls the sandbox-create failure probability. Implements
// sandbox.FaultInjector.
func (pl *Plan) CreateFault() error {
	if pl.CreateFailProb > 0 && pl.roll() < pl.CreateFailProb {
		pl.count("sandbox_create")
		return fmt.Errorf("sandbox create: %w", ErrInjected)
	}
	return nil
}

// ForkFault rolls the OS fork failure probability. Implements
// localos.FaultInjector.
func (pl *Plan) ForkFault() error {
	if pl.ForkFailProb > 0 && pl.roll() < pl.ForkFailProb {
		pl.count("fork")
		return fmt.Errorf("fork: %w", ErrInjected)
	}
	return nil
}

// HandlerFault rolls the handler crash probability; consulted by the
// Molecule runtime once per handler dispatch.
func (pl *Plan) HandlerFault() error {
	if pl.HandlerFailProb > 0 && pl.roll() < pl.HandlerFailProb {
		pl.count("handler")
		return fmt.Errorf("handler crash: %w", ErrInjected)
	}
	return nil
}
