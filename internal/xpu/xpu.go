// Package xpu implements XPU-Shim, the distributed indirection layer that
// bridges a single serverless runtime and the multiple operating systems of
// a heterogeneous computer (§3 of the paper).
//
// One shim Node runs on every general-purpose PU; accelerators that cannot
// run programs get a *virtual* node hosted on a neighbor CPU/DPU (§4.1).
// Nodes synchronize global state by explicit message passing over the
// hardware interconnect — never by shared memory — following the multikernel
// tradition the paper cites.
//
// The two key primitives are:
//
//   - Distributed capabilities: every process has a CAP_Group replicated on
//     all nodes (capability updates synchronize immediately, so permission
//     checks are always local), addressed by a globally unique xpu_pid that
//     encodes (PU-ID, local UUID) — creation needs no synchronization.
//
//   - Neighbor IPC (nIPC): XPU-FIFOs let processes on different PUs
//     communicate over the direct interconnect (RDMA/DMA) instead of the
//     network, through the same FIFO interface local processes use.
package xpu

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/hw"
	"repro/internal/localos"
	"repro/internal/params"
	"repro/internal/sim"
)

// ErrNodeDown marks an XPUcall or FIFO operation against a crashed PU.
// Operations fail fast with this error instead of hanging on a node that
// will never answer.
var ErrNodeDown = errors.New("xpu: node down")

// FaultView is the shim's read-only view of a fault plan. Declared
// consumer-side so xpu need not import the faults package; *faults.Plan
// implements it.
type FaultView interface {
	Down(id hw.PUID) bool
}

// Counter is a monotonically increasing metric series handle.
type Counter interface {
	Add(n int64)
}

// Gauge is a point-in-time metric series handle.
type Gauge interface {
	Set(v float64)
}

// MetricSink hands the shim interned handles into a metrics registry.
// Declared consumer-side so xpu need not import the obs package — the same
// inversion as FaultView — and molecule's observer adapter implements it
// over *obs.Observer. The shim caches the returned handles per link and per
// FIFO, so the data path performs zero registry lookups and zero
// allocations per message (pinned by TestFIFOWritePathZeroAlloc).
type MetricSink interface {
	Counter(name, labelKey, labelValue string) Counter
	Gauge(name, labelKey, labelValue string) Gauge
}

// XPID is a globally unique process identifier: the PU's ID plus the
// process's UUID (PID) on the local OS. The encoding statically partitions
// the ID space across PUs, so allocating one requires no synchronization
// (§3.2 "Global process").
type XPID struct {
	PU    hw.PUID
	Local localos.PID
}

func (x XPID) String() string { return fmt.Sprintf("xpid(%d:%d)", x.PU, x.Local) }

// Perm is a capability permission bitmask.
type Perm uint8

const (
	PermRead Perm = 1 << iota
	PermWrite
	// PermOwner may grant and revoke the capability to other processes.
	PermOwner
)

// Has reports whether p includes all bits of q.
func (p Perm) Has(q Perm) bool { return p&q == q }

// ObjID identifies a distributed object (currently XPU-FIFOs).
type ObjID struct {
	Kind string // "fifo"
	UUID string // global UUID
}

// TransportMode selects the XPUcall implementation between a user process
// and its local XPU-Shim (Fig 7).
type TransportMode int

const (
	// TransportBase uses request and response FIFOs: two IPC round trips.
	TransportBase TransportMode = iota
	// TransportMPSC posts requests into a shared MPSC queue polled by the
	// shim and uses IPC only for the response: one round trip.
	TransportMPSC
	// TransportPoll additionally has the caller poll shared memory for the
	// response, eliminating IPC entirely.
	TransportPoll
)

var transportNames = map[TransportMode]string{
	TransportBase: "base", TransportMPSC: "mpsc", TransportPoll: "poll",
}

func (m TransportMode) String() string {
	if s, ok := transportNames[m]; ok {
		return s
	}
	return fmt.Sprintf("TransportMode(%d)", int(m))
}

// CallOverhead returns the user↔shim XPUcall cost for the mode on the given
// PU kind. The per-round-trip IPC cost is much higher on slow DPU cores,
// which is what motivates the MPSC and polling optimizations (§5).
func (m TransportMode) CallOverhead(kind hw.PUKind) time.Duration {
	rt := params.XPUCallIPCRoundTripCPU
	if kind == hw.DPU {
		rt = params.XPUCallIPCRoundTripDPU
	}
	switch m {
	case TransportBase:
		return 2*rt + params.XPUCallShimHandling
	case TransportMPSC:
		return params.XPUCallMPSCEnqueue + rt + params.XPUCallShimHandling
	case TransportPoll:
		return params.XPUCallMPSCEnqueue + params.XPUCallShimHandling + params.XPUCallPollResponse
	default:
		return 2*rt + params.XPUCallShimHandling
	}
}

// SyncStats counts inter-node synchronization traffic, exposed for the
// lazy-vs-immediate ablation.
type SyncStats struct {
	ImmediateSyncs int // broadcasts performed eagerly
	LazyQueued     int // updates deferred
	LazyFlushes    int // batched broadcasts of deferred updates
}

// Shim is the distributed XPU-Shim instance spanning one machine.
type Shim struct {
	Env     *sim.Env
	Machine *hw.Machine

	nodes map[hw.PUID]*Node

	// Replicated global state. The replication is modeled (a single map)
	// but every mutation charges the synchronization cost the distributed
	// protocol would pay, per the strategies of §5.
	caps  map[XPID]map[ObjID]Perm
	fifos map[string]*XPUFIFO // by global UUID

	// Host objects released by FD.Unlink, reused by FIFOInit and
	// FIFOConnect.
	freeFIFOs []*XPUFIFO
	freeFDs   []*FD

	// capGen rises on every capability mutation; FD-level permission caches
	// are valid only while their generation matches. Starts at 1 so a
	// zero-valued cache is never mistaken for current.
	capGen uint64

	// topoGen rises when a node is added; per-node broadcast worst-link
	// caches are valid only while their generation matches.
	topoGen uint64

	// nipcLS interns the per-link nIPC counter label sets so the data path
	// never rebuilds them per message.
	nipcLS map[[2]hw.PUID]*nipcSeries

	lazyBatch     int // deletions queued for lazy sync
	lazyBatchSize int
	// EagerDeletes disables lazy synchronization of object reclamations,
	// broadcasting every delete immediately (the ablation against §5's
	// lazy strategy).
	EagerDeletes bool
	stats        SyncStats

	// metrics, when non-nil, records per-link nIPC traffic counters and
	// FIFO depth gauges. Nil (the default) costs nothing on the data path.
	// Set through SetMetrics so cached series handles never outlive the
	// sink they came from.
	metrics MetricSink

	// Faults, when non-nil, lets XPUcalls against crashed PUs fail fast
	// with ErrNodeDown. Nil keeps every path byte-identical.
	Faults FaultView
}

// NewShim creates a shim over the machine with no nodes yet.
func NewShim(env *sim.Env, m *hw.Machine) *Shim {
	return &Shim{
		Env:           env,
		Machine:       m,
		nodes:         make(map[hw.PUID]*Node),
		caps:          make(map[XPID]map[ObjID]Perm),
		fifos:         make(map[string]*XPUFIFO),
		capGen:        1,
		topoGen:       1,
		nipcLS:        make(map[[2]hw.PUID]*nipcSeries),
		lazyBatchSize: 16,
	}
}

// Stats returns synchronization counters.
func (s *Shim) Stats() SyncStats { return s.stats }

// NumFIFOs reports the number of live XPU-FIFO UUIDs.
func (s *Shim) NumFIFOs() int { return len(s.fifos) }

// NumCaps reports the number of registered processes (CAP_Groups) and the
// capability entries they hold in total.
func (s *Shim) NumCaps() (groups, entries int) {
	for _, c := range s.caps { //lint:unordered commutative count
		entries += len(c)
	}
	return len(s.caps), entries
}

// SetMetrics attaches (or, with nil, detaches) the metric sink. Cached
// per-link and per-FIFO series handles are dropped so a reattached sink
// starts fresh instead of feeding series interned in a previous registry.
func (s *Shim) SetMetrics(m MetricSink) {
	s.metrics = m
	s.nipcLS = make(map[[2]hw.PUID]*nipcSeries)
	for _, f := range s.fifos {
		f.depth = nil
	}
}

// Node is the XPU-Shim instance on (or for) one PU.
type Node struct {
	Shim *Shim
	PU   *hw.PU           // the PU this node manages
	Host *hw.PU           // where the shim code actually runs (≠ PU for accelerators)
	OS   *localos.OS      // the local OS (the host's OS for virtual nodes)
	Mode TransportMode    // XPUcall transport for user processes on this node
	self *localos.Process // the shim daemon's own OS process

	// handlers bounds concurrent XPUcall handling: §5's multi-threaded
	// shim dedicates one MPSC queue per handler thread, so calls beyond
	// the thread count queue behind in-flight ones.
	handlers *sim.Resource

	// Broadcast worst-link cache: the slowest peer link only changes when
	// the node set does (Shim.topoGen), so broadcast need not walk every
	// node per sync. The charged virtual time is identical.
	bcastWorst time.Duration
	bcastGen   uint64
}

// AddNode installs a shim node on a general-purpose PU running os.
// The default transport is Base on CPUs (cheap IPC) and Poll on DPUs
// (the paper's default after the Fig 7 optimizations).
func (s *Shim) AddNode(pu *hw.PU, os *localos.OS) *Node {
	mode := TransportBase
	if pu.Kind == hw.DPU {
		mode = TransportPoll
	}
	n := &Node{Shim: s, PU: pu, Host: pu, OS: os, Mode: mode}
	n.self = os.NewDetachedProcess("xpu-shimd")
	n.handlers = sim.NewResource(s.Env, 1)
	s.nodes[pu.ID] = n
	s.topoGen++
	return n
}

// AddVirtualNode installs a shim node for an accelerator PU (FPGA/GPU),
// hosted on the neighbor general-purpose PU host whose OS is hostOS (§4.1:
// "we start a virtual XPU-Shim instance on the neighbor CPU/DPU").
func (s *Shim) AddVirtualNode(accel *hw.PU, host *hw.PU, hostOS *localos.OS) *Node {
	n := &Node{Shim: s, PU: accel, Host: host, OS: hostOS, Mode: TransportBase}
	n.self = hostOS.NewDetachedProcess("xpu-shimd-virt")
	n.handlers = sim.NewResource(s.Env, 1)
	s.nodes[accel.ID] = n
	s.topoGen++
	return n
}

// Node returns the shim node for a PU, or nil.
func (s *Shim) Node(id hw.PUID) *Node { return s.nodes[id] }

// Nodes returns all nodes keyed by PU ID.
func (s *Shim) Nodes() map[hw.PUID]*Node { return s.nodes }

// Virtual reports whether this node manages an accelerator from a neighbor
// host.
func (n *Node) Virtual() bool { return n.PU.ID != n.Host.ID }

// SetHandlerThreads configures the node's XPUcall handler thread count
// (§5: each thread polls a dedicated MPSC queue).
func (n *Node) SetHandlerThreads(threads int) {
	if threads < 1 {
		threads = 1
	}
	n.handlers = sim.NewResource(n.Shim.Env, threads)
}

// down reports whether the fault plan (if any) has PU id crashed now.
func (s *Shim) down(id hw.PUID) bool { return s.Faults != nil && s.Faults.Down(id) }

// failfast returns ErrNodeDown when this node cannot answer an XPUcall:
// its PU is crashed, or — for a virtual node — the neighbor PU hosting the
// shim instance is crashed.
func (n *Node) failfast() error {
	if n.Shim.down(n.PU.ID) {
		return fmt.Errorf("xpu: PU %d: %w", n.PU.ID, ErrNodeDown)
	}
	if n.Virtual() && n.Shim.down(n.Host.ID) {
		return fmt.Errorf("xpu: host PU %d: %w", n.Host.ID, ErrNodeDown)
	}
	return nil
}

// xcall charges the user↔shim XPUcall transport cost on this node; the
// shim-side handling portion contends on the handler threads.
func (n *Node) xcall(p *sim.Proc) {
	var ph xcallPhase
	for !n.xcallStep(p, &ph) {
		p.Park()
	}
}

// xcallPhase is how far an XPUcall has got: the phase whose work runs next.
type xcallPhase uint8

const (
	xcallTransport xcallPhase = iota // charge the transport overhead
	xcallAcquire                     // take a handler thread
	xcallHandle                      // charge the shim-side handling
	xcallRelease                     // free the handler thread
)

// xcallStep is xcall as a step (see sim.Step): it runs the call on from
// *ph, reporting true once the call is done, or false with p waiting for
// its next resume. The XPUcall cost model is written here only.
//
//molecule:hotpath
func (n *Node) xcallStep(p *sim.Proc, ph *xcallPhase) bool {
	switch *ph {
	case xcallTransport:
		*ph = xcallAcquire
		if !p.SleepStep(n.Mode.CallOverhead(n.Host.Kind) - params.XPUCallShimHandling) {
			return false
		}
		fallthrough
	case xcallAcquire:
		*ph = xcallHandle
		if !n.handlers.AcquireStep(p) {
			return false
		}
		fallthrough
	case xcallHandle:
		*ph = xcallRelease
		if !p.SleepStep(params.XPUCallShimHandling) {
			return false
		}
		fallthrough
	default:
		n.handlers.Release()
		return true
	}
}

// broadcast charges the cost of an immediate state synchronization from this
// node to every other node: a small control message over each link, sent in
// parallel (the latency is the slowest peer's link). The worst-link latency
// is cached per node and invalidated by topology changes, so repeated syncs
// charge the identical virtual time without re-walking the node set.
func (n *Node) broadcast(p *sim.Proc) {
	if n.bcastGen != n.Shim.topoGen {
		var worst time.Duration
		for id := range n.Shim.nodes {
			if id == n.PU.ID {
				continue
			}
			if l, ok := n.Shim.Machine.LinkBetween(n.Host.ID, id); ok {
				if d := l.TransferTime(64); d > worst {
					worst = d
				}
			}
		}
		n.bcastWorst = worst
		n.bcastGen = n.Shim.topoGen
	}
	p.Sleep(n.bcastWorst)
	n.Shim.stats.ImmediateSyncs++
}

// lazySync queues a harmless-stale update (e.g. a FIFO UUID reclamation) and
// flushes the batch once it is full (§5 "Lazy synchronization"). With
// EagerDeletes set, every update broadcasts immediately instead.
func (n *Node) lazySync(p *sim.Proc) {
	if n.Shim.EagerDeletes {
		n.broadcast(p)
		return
	}
	n.Shim.lazyBatch++
	n.Shim.stats.LazyQueued++
	if n.Shim.lazyBatch >= n.Shim.lazyBatchSize {
		n.broadcast(p)
		n.Shim.stats.ImmediateSyncs-- // the broadcast was a lazy flush
		n.Shim.stats.LazyFlushes++
		n.Shim.lazyBatch = 0
	}
}

// Register makes an OS process globally visible, creating its CAP_Group and
// returning its xpu_pid. No synchronization is needed: the xpu_pid encoding
// statically partitions the namespace (§5 "No synchronization").
func (n *Node) Register(pr *localos.Process) XPID {
	x := XPID{PU: n.PU.ID, Local: pr.PID}
	if _, ok := n.Shim.caps[x]; !ok {
		n.Shim.caps[x] = make(map[ObjID]Perm)
	}
	return x
}

// Unregister drops an exited process's CAP_Group, the inverse of Register.
// Like Register it needs no synchronization: xpu_pids are never reused.
func (n *Node) Unregister(pr *localos.Process) {
	delete(n.Shim.caps, XPID{PU: n.PU.ID, Local: pr.PID})
	n.Shim.capGen++
}

// GetXPUPID implements the get_xpupid XPUcall.
func (n *Node) GetXPUPID(p *sim.Proc, pr *localos.Process) XPID {
	n.xcall(p)
	return n.Register(pr)
}

// capsOf returns the capability set for x, creating it if needed.
func (s *Shim) capsOf(x XPID) map[ObjID]Perm {
	c, ok := s.caps[x]
	if !ok {
		c = make(map[ObjID]Perm)
		s.caps[x] = c
	}
	return c
}

// HasCap reports whether x holds perm on obj. Checks are always local —
// capability updates synchronize immediately so "permission checking can
// always finish locally" (§5). Read-only: a lookup for an unknown process
// must not materialize its capability set.
func (s *Shim) HasCap(x XPID, obj ObjID, perm Perm) bool {
	return s.caps[x][obj].Has(perm)
}

// GrantCap implements grant_cap: caller grants perm on obj to target.
// The caller must hold PermOwner on obj, and a FIFO must still be open, as
// for FIFOConnect. The update is synchronized to all nodes immediately.
func (n *Node) GrantCap(p *sim.Proc, caller, target XPID, obj ObjID, perm Perm) error {
	if err := n.failfast(); err != nil {
		return err
	}
	n.xcall(p)
	f, err := n.Shim.grantable(obj)
	if err != nil {
		return err
	}
	if !n.Shim.HasCap(caller, obj, PermOwner) {
		return fmt.Errorf("xpu: %v is not an owner of %v", caller, obj)
	}
	n.Shim.grant(target, obj, f, perm)
	n.broadcast(p)
	return nil
}

// grantable checks that a capability on obj may be granted, returning the
// object's FIFO (nil for any other kind). A FIFO must still be open: its
// holders are what Unlink releases, so a grant on a closed or unknown FIFO
// would outlive it.
func (s *Shim) grantable(obj ObjID) (*XPUFIFO, error) {
	if obj.Kind != "fifo" {
		return nil, nil
	}
	if f := s.fifos[obj.UUID]; f != nil && !f.closed {
		return f, nil
	}
	return nil, fmt.Errorf("xpu: no FIFO %q", obj.UUID)
}

// grant gives target perm on obj, recording target as a holder of obj's
// FIFO f (nil for any other kind) so that Unlink drops the entry.
func (s *Shim) grant(target XPID, obj ObjID, f *XPUFIFO, perm Perm) {
	s.grantLocal(target, obj, perm)
	if f != nil && !slices.Contains(f.holders, target) {
		f.holders = append(f.holders, target)
	}
}

// RevokeCap implements revoke_cap. Revoking from a process that holds no
// capability on obj changes nothing and synchronizes nothing.
func (n *Node) RevokeCap(p *sim.Proc, caller, target XPID, obj ObjID, perm Perm) error {
	if err := n.failfast(); err != nil {
		return err
	}
	n.xcall(p)
	if !n.Shim.HasCap(caller, obj, PermOwner) {
		return fmt.Errorf("xpu: %v is not an owner of %v", caller, obj)
	}
	held, ok := n.Shim.caps[target][obj]
	if !ok {
		return nil
	}
	n.Shim.caps[target][obj] = held &^ perm
	n.Shim.capGen++
	n.broadcast(p)
	return nil
}

// grantLocal installs a capability without charging call/sync costs; used
// when the shim itself creates an object on behalf of a process.
func (s *Shim) grantLocal(x XPID, obj ObjID, perm Perm) {
	s.capsOf(x)[obj] |= perm
	s.capGen++
}
