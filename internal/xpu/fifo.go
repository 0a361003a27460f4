package xpu

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/hw"
	"repro/internal/localos"
	"repro/internal/sim"
)

// nipcSeries holds the cached counter handles for one directed link's nIPC
// traffic, built once per link instead of fmt.Sprintf-ing a label (and
// probing the registry) per message.
type nipcSeries struct {
	msgs  Counter
	bytes Counter
}

// linkSeries returns (creating on first use) the cached series for the
// directed link src->dst. Callers check s.metrics != nil first.
func (s *Shim) linkSeries(src, dst hw.PUID) *nipcSeries {
	k := [2]hw.PUID{src, dst}
	ls := s.nipcLS[k]
	if ls == nil {
		link := fmt.Sprintf("%d->%d", src, dst)
		ls = &nipcSeries{
			msgs:  s.metrics.Counter("xpu_nipc_messages_total", "link", link),
			bytes: s.metrics.Counter("xpu_nipc_bytes_total", "link", link),
		}
		s.nipcLS[k] = ls
	}
	return ls
}

// recordNIPC counts n cross-PU FIFO payloads totalling bytes on the directed
// link src->dst.
//
//molecule:hotpath
func (s *Shim) recordNIPC(src, dst hw.PUID, n, bytes int) {
	if s.metrics == nil {
		return
	}
	ls := s.linkSeries(src, dst)
	ls.msgs.Add(int64(n))
	ls.bytes.Add(int64(bytes))
}

// recordDepth tracks a FIFO's queue depth after a send or receive. The
// gauge handle materializes on first use with a sink attached, matching the
// lazy series creation of the registry itself.
//
//molecule:hotpath
func (s *Shim) recordDepth(f *XPUFIFO) {
	m := s.metrics
	if m == nil {
		return
	}
	if f.depth == nil {
		f.depth = m.Gauge("xpu_fifo_depth", "fifo", f.UUID)
	}
	f.depth.Set(float64(f.ch.Len()))
}

// XPUFIFO is the neighbor-IPC object: a FIFO whose endpoints may live on
// different PUs. The queue is hosted on the creating PU; writes from another
// PU traverse the direct interconnect (RDMA for DPUs, DMA for accelerators),
// and remote reads pull the payload across the same link. This gives
// functions the exact FIFO interface they use locally (§3.3) while the shim
// handles placement.
type XPUFIFO struct {
	UUID  string
	Home  hw.PUID // PU hosting the queue
	Owner XPID

	// homeHost is the physical PU holding the queue's memory: the home
	// node's host PU. For FIFOs homed on an accelerator's virtual node the
	// queue lives in the neighbor host's memory, so that is where transfers
	// terminate. A FIFO's home never changes, so this is resolved once at
	// FIFOInit instead of a nodes-map lookup per Write/Read.
	homeHost hw.PUID

	depth  Gauge // cached xpu_fifo_depth handle, built on first record
	ch     *sim.Chan[localos.Message]
	closed bool
	fds    int // descriptors not yet unlinked; the FIFO is recycled at zero
	// holders are the processes given a capability on the FIFO, by
	// FIFOInit or GrantCap: releasing the FIFO drops their entries.
	holders []XPID
}

// Len reports queued messages.
func (f *XPUFIFO) Len() int { return f.ch.Len() }

// FD is a process-local descriptor for a connected XPU-FIFO.
type FD struct {
	fifo *XPUFIFO
	node *Node // the node through which the holder accesses the FIFO
	pid  XPID
	obj  ObjID // the FIFO's capability object, built once

	// Capability-check cache: the shim's replicated capability state changes
	// only through grant/revoke, each of which bumps Shim.capGen. Between
	// mutations the descriptor's effective permission is stable, so the hot
	// path replays the cached bitmask instead of two map lookups per message.
	// The check itself stays local either way (§5); this only removes the
	// redundant lookup work, not any modeled synchronization.
	capPerm Perm
	capGen  uint64
}

// UUID returns the global UUID of the underlying FIFO.
func (fd *FD) UUID() string { return fd.fifo.UUID }

// hasCap is the descriptor-cached equivalent of Shim.HasCap for the FIFO's
// own capability object.
func (fd *FD) hasCap(perm Perm) bool {
	s := fd.node.Shim
	if fd.capGen != s.capGen {
		fd.capPerm = s.caps[fd.pid][fd.obj]
		fd.capGen = s.capGen
	}
	return fd.capPerm.Has(perm)
}

// FIFOInit implements xfifo_init: create an XPU-FIFO with the given global
// UUID, owned by caller, hosted on this node's PU. Global UUIDs must be
// unique machine-wide, so creation synchronizes immediately with all other
// nodes (§5 "Immediate synchronization").
func (n *Node) FIFOInit(p *sim.Proc, caller XPID, uuid string, capacity int) (*FD, error) {
	if err := n.failfast(); err != nil {
		return nil, err
	}
	n.xcall(p)
	if _, exists := n.Shim.fifos[uuid]; exists {
		return nil, fmt.Errorf("xpu: FIFO UUID %q already in use", uuid)
	}
	f := n.Shim.newFIFO(capacity)
	f.UUID, f.Home, f.Owner, f.homeHost = uuid, n.PU.ID, caller, n.Host.ID
	n.Shim.fifos[uuid] = f
	obj := ObjID{Kind: "fifo", UUID: uuid}
	n.Shim.grantLocal(caller, obj, PermRead|PermWrite|PermOwner)
	f.holders = append(f.holders, caller)
	n.broadcast(p) // UUID uniqueness + owner capability propagate eagerly
	return n.Shim.newFD(f, n, caller, obj), nil
}

// newFIFO returns an empty, open FIFO of the given capacity, reusing one a
// previous Unlink released.
func (s *Shim) newFIFO(capacity int) *XPUFIFO {
	n := len(s.freeFIFOs)
	if n == 0 {
		return &XPUFIFO{ch: sim.NewChan[localos.Message](s.Env, capacity)}
	}
	f := s.freeFIFOs[n-1]
	s.freeFIFOs[n-1] = nil
	s.freeFIFOs = s.freeFIFOs[:n-1]
	f.ch.Reset(capacity)
	return f
}

// newFD returns a descriptor for f, reusing one a previous Unlink released.
// Its capability cache starts invalid (capGen 0), so the first check reads
// the shim's state.
func (s *Shim) newFD(f *XPUFIFO, n *Node, pid XPID, obj ObjID) *FD {
	var fd *FD
	if k := len(s.freeFDs); k > 0 {
		fd = s.freeFDs[k-1]
		s.freeFDs[k-1] = nil
		s.freeFDs = s.freeFDs[:k-1]
	} else {
		fd = new(FD)
	}
	*fd = FD{fifo: f, node: n, pid: pid, obj: obj}
	f.fds++
	return fd
}

// FIFOConnect implements xfifo_connect: attach to an existing XPU-FIFO by
// global UUID. The caller must hold read or write permission.
func (n *Node) FIFOConnect(p *sim.Proc, caller XPID, uuid string) (*FD, error) {
	if err := n.failfast(); err != nil {
		return nil, err
	}
	n.xcall(p)
	f, ok := n.Shim.fifos[uuid]
	if !ok || f.closed {
		return nil, fmt.Errorf("xpu: no FIFO %q", uuid)
	}
	obj := ObjID{Kind: "fifo", UUID: uuid}
	if !n.Shim.HasCap(caller, obj, PermRead) && !n.Shim.HasCap(caller, obj, PermWrite) {
		return nil, fmt.Errorf("xpu: %v lacks permission on FIFO %q", caller, uuid)
	}
	return n.Shim.newFD(f, n, caller, obj), nil
}

// Write implements xfifo_write. The caller must hold write permission.
// When the writer's hosting PU is not the PU hosting the FIFO's queue, the
// payload crosses the interconnect link between those two physical PUs —
// the same PU the remote-path guard tests, so a virtual node whose FIFO
// lives on its own host charges nothing, and one whose host differs from
// its logical PU charges the actual host-to-home link.
//
//molecule:hotpath
func (fd *FD) Write(p *sim.Proc, m localos.Message) error {
	n := fd.node
	if err := n.failfast(); err != nil {
		return err
	}
	if n.Shim.down(fd.fifo.Home) {
		return fmt.Errorf("xpu: FIFO %q home PU %d: %w", fd.fifo.UUID, fd.fifo.Home, ErrNodeDown)
	}
	n.xcall(p)
	if !fd.hasCap(PermWrite) {
		return fmt.Errorf("xpu: %v lacks write permission on FIFO %q", fd.pid, fd.fifo.UUID)
	}
	if fd.fifo.closed {
		return fmt.Errorf("xpu: FIFO %q closed", fd.fifo.UUID)
	}
	home := fd.fifo.homeHost
	if n.Host.ID != home {
		if _, err := n.Shim.Machine.Transfer(p, n.Host.ID, home, m.Size()); err != nil {
			return err
		}
		n.Shim.recordNIPC(n.Host.ID, home, 1, m.Size())
	}
	if !fd.fifo.ch.SendOrClosed(p, m) {
		return fmt.Errorf("xpu: FIFO %q closed", fd.fifo.UUID)
	}
	n.Shim.recordDepth(fd.fifo)
	return nil
}

// Read implements xfifo_read, blocking until a message is available. The
// caller must hold read permission. Readers hosted away from the queue's
// physical home pull the payload across the interconnect. It is a Reader
// driven on the caller's coroutine.
//
//molecule:hotpath
func (fd *FD) Read(p *sim.Proc) (localos.Message, error) {
	r := Reader{fd: fd}
	r.block(p)
	return r.Finish(p)
}

// Reader is one xfifo_read split at its wait, so a process can wait for the
// message without its stack. Its Step (a sim.Step) runs the syscall
// prefix (the fail-fast checks, the XPUcall and the capability check),
// waits for a message, and settles the read: the fail-fast checks again and
// the depth gauge. Finish then completes the read on the reader's
// coroutine; only a reader hosted away from the queue's home has work left
// there, pulling the payload across the interconnect. Read is the same
// Reader driven by a blocking call, so the stepped and the blocking read
// share one cost model. A Reader serves one read at a time; Reset arms it.
type Reader struct {
	fd    *FD
	phase readPhase
	xc    xcallPhase
	m     localos.Message
	err   error // what ended the read early, if anything
}

// readPhase is how far a Reader's wait has got.
type readPhase uint8

const (
	readStart  readPhase = iota // fail-fast checks
	readCall                    // the XPUcall, then the capability check and the receive
	readHanded                  // parked among the queue's receivers
)

// Reset arms r for one read on fd.
func (r *Reader) Reset(fd *FD) { *r = Reader{fd: fd} }

// block drives r's wait on p's own coroutine.
func (r *Reader) block(p *sim.Proc) {
	for val := any(nil); !r.Step(p, val); {
		val = p.Park()
	}
}

// Step runs the read on from where it stopped; see sim.Step.
//
//molecule:hotpath
func (r *Reader) Step(p *sim.Proc, val any) bool {
	fd := r.fd
	n := fd.node
	switch r.phase {
	case readStart:
		if err := n.failfast(); err != nil {
			return r.fail(err)
		}
		if n.Shim.down(fd.fifo.Home) {
			return r.fail(fmt.Errorf("xpu: FIFO %q home PU %d: %w", fd.fifo.UUID, fd.fifo.Home, ErrNodeDown))
		}
		r.phase = readCall
		fallthrough
	case readCall:
		if !n.xcallStep(p, &r.xc) {
			return false
		}
		if !fd.hasCap(PermRead) {
			return r.fail(fmt.Errorf("xpu: %v lacks read permission on FIFO %q", fd.pid, fd.fifo.UUID))
		}
		if ok, got := fd.fifo.ch.RecvStep(p, &r.m); got {
			return r.take(ok)
		}
		r.phase = readHanded
		return false
	default:
		return r.take(fd.fifo.ch.Handed(val, &r.m))
	}
}

// fail ends the wait with err.
func (r *Reader) fail(err error) bool {
	r.err = err
	return true
}

// take settles the read on what came off the queue: r.m, or the FIFO's
// close when ok is false. The wait may have lasted arbitrary virtual time,
// so it re-runs the fail-fast checks: a reader whose node (or the queue's
// home) crashed while it waited gets ErrNodeDown instead of a stale read.
func (r *Reader) take(ok bool) bool {
	fd := r.fd
	if !ok {
		return r.fail(fmt.Errorf("xpu: FIFO %q closed", fd.fifo.UUID))
	}
	if err := fd.node.failfast(); err != nil {
		return r.fail(err)
	}
	if fd.node.Shim.down(fd.fifo.Home) {
		return r.fail(fmt.Errorf("xpu: FIFO %q home PU %d: %w", fd.fifo.UUID, fd.fifo.Home, ErrNodeDown))
	}
	fd.node.Shim.recordDepth(fd.fifo)
	return true
}

// Settled reports, once r's wait is over, that the read succeeded and
// Finish has no virtual time left to charge.
func (r *Reader) Settled() bool {
	return r.err == nil && r.fd.node.Host.ID == r.fd.fifo.homeHost
}

// Finish completes the read once r's wait is over, on the reading process
// p, and returns what Read would.
//
//molecule:hotpath
func (r *Reader) Finish(p *sim.Proc) (localos.Message, error) {
	if r.err != nil {
		return localos.Message{}, r.err
	}
	fd, m := r.fd, r.m
	n := fd.node
	home := fd.fifo.homeHost
	if n.Host.ID != home {
		if _, err := n.Shim.Machine.Transfer(p, home, n.Host.ID, m.Size()); err != nil {
			return localos.Message{}, err
		}
		n.Shim.recordNIPC(home, n.Host.ID, 1, m.Size())
	}
	return m, nil
}

// WriteBatch implements vectorized xfifo_write: it enqueues msgs in order,
// paying the user↔shim XPUcall and the capability check once, and — when the
// writer is remote from the queue's home — crossing the interconnect as one
// batched transfer whose base latency is amortized over the whole vector
// (hw.TransferBatch). Simulated time therefore differs from len(msgs)
// individual Writes by design; per-message Write is untouched and the
// default, which is why the golden report only moves when a caller opts in.
func (fd *FD) WriteBatch(p *sim.Proc, msgs []localos.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	n := fd.node
	if err := n.failfast(); err != nil {
		return err
	}
	if n.Shim.down(fd.fifo.Home) {
		return fmt.Errorf("xpu: FIFO %q home PU %d: %w", fd.fifo.UUID, fd.fifo.Home, ErrNodeDown)
	}
	n.xcall(p)
	if !fd.hasCap(PermWrite) {
		return fmt.Errorf("xpu: %v lacks write permission on FIFO %q", fd.pid, fd.fifo.UUID)
	}
	if fd.fifo.closed {
		return fmt.Errorf("xpu: FIFO %q closed", fd.fifo.UUID)
	}
	home := fd.fifo.homeHost
	if n.Host.ID != home {
		sizes := make([]int, len(msgs))
		total := 0
		for i := range msgs {
			sizes[i] = msgs[i].Size()
			total += sizes[i]
		}
		if _, err := n.Shim.Machine.TransferBatch(p, n.Host.ID, home, sizes); err != nil {
			return err
		}
		n.Shim.recordNIPC(n.Host.ID, home, len(msgs), total)
	}
	for i := range msgs {
		if !fd.fifo.ch.SendOrClosed(p, msgs[i]) {
			return fmt.Errorf("xpu: FIFO %q closed", fd.fifo.UUID)
		}
	}
	n.Shim.recordDepth(fd.fifo)
	return nil
}

// ReadBatch implements vectorized xfifo_read: it blocks for the first
// message, then drains whatever else is already queued (up to max), paying
// the XPUcall once and pulling the vector across the interconnect as one
// batched transfer. A closed FIFO with no queued messages returns an error;
// a crash while parked surfaces ErrNodeDown exactly like Read.
func (fd *FD) ReadBatch(p *sim.Proc, max int) ([]localos.Message, error) {
	if max < 1 {
		max = 1
	}
	r := Reader{fd: fd}
	r.block(p)
	if r.err != nil {
		return nil, r.err
	}
	n := fd.node
	out := make([]localos.Message, 1, max)
	out[0] = r.m
	for len(out) < max {
		m, _, got := fd.fifo.ch.TryRecv()
		if !got {
			break
		}
		out = append(out, m)
	}
	n.Shim.recordDepth(fd.fifo)
	home := fd.fifo.homeHost
	if n.Host.ID != home {
		sizes := make([]int, len(out))
		total := 0
		for i := range out {
			sizes[i] = out[i].Size()
			total += sizes[i]
		}
		if _, err := n.Shim.Machine.TransferBatch(p, home, n.Host.ID, sizes); err != nil {
			return nil, err
		}
		n.Shim.recordNIPC(home, n.Host.ID, len(out), total)
	}
	return out, nil
}

// Close implements xfifo_close: the owner tears the FIFO down; the UUID
// reclamation propagates lazily to other nodes — stale knowledge of a dead
// UUID is harmless (§5 "Lazy synchronization").
func (fd *FD) Close(p *sim.Proc) error {
	n := fd.node
	if err := n.failfast(); err != nil {
		return err
	}
	n.xcall(p)
	obj := ObjID{Kind: "fifo", UUID: fd.fifo.UUID}
	if !n.Shim.HasCap(fd.pid, obj, PermOwner) {
		// Non-owners just drop their descriptor.
		return nil
	}
	if !fd.fifo.closed {
		fd.close()
		n.lazySync(p)
	}
	return nil
}

// Abort closes the FIFO from the runtime side: no XPUcall, no capability
// check, and no virtual time, so it works even when the owner's PU has
// crashed. Every process blocked on the queue wakes with a closed-FIFO
// error. A runtime tearing down a failed function chain uses it.
func (fd *FD) Abort() {
	if !fd.fifo.closed {
		fd.close()
	}
}

func (fd *FD) close() {
	fd.fifo.closed = true
	fd.fifo.ch.Close()
	delete(fd.node.Shim.fifos, fd.fifo.UUID)
}

// Unlink releases the descriptor once its FIFO's last user is done: the
// FIFO's UUID leaves the shim, and when the FIFO's last descriptor goes,
// every capability on it goes too, including one granted to a peer that
// never connected. Like Abort it makes no XPUcall, checks no capability and
// charges no virtual time, and it wakes no one. UUIDs are never reused, so
// no later lookup can tell a dropped entry from one that never existed. The
// descriptor is recycled, and so is the FIFO with its last descriptor: the
// caller must drop its references, and no process may be parked on the
// FIFO.
func (fd *FD) Unlink() {
	s, f := fd.node.Shim, fd.fifo
	if s.fifos[f.UUID] == f {
		delete(s.fifos, f.UUID)
	}
	if f.fds--; f.fds == 0 {
		for _, x := range f.holders {
			delete(s.caps[x], fd.obj)
		}
		s.capGen++
		*f = XPUFIFO{ch: f.ch, holders: f.holders[:0]}
		s.freeFIFOs = append(s.freeFIFOs, f)
	}
	*fd = FD{}
	s.freeFDs = append(s.freeFDs, fd)
}

// SpawnBody is the program run by an xSpawn'd process: it executes as a
// simulation process on the target PU with its OS-level process handle.
type SpawnBody func(p *sim.Proc, node *Node, self *localos.Process)

// XSpawn implements xSpawn: start a new program on another PU (Table 2).
// The request travels over the interconnect to the target node, whose OS
// spawns the process; capv capabilities are granted to the child explicitly
// (no implicit permission inheritance, §3.4), under GrantCap's rule that a
// FIFO must exist and be open. It returns the child's xpu_pid.
func (n *Node) XSpawn(p *sim.Proc, targetPU hw.PUID, name string, capv map[ObjID]Perm, body SpawnBody) (XPID, error) {
	if err := n.failfast(); err != nil {
		return XPID{}, err
	}
	if n.Shim.down(targetPU) {
		return XPID{}, fmt.Errorf("xpu: spawn target PU %d: %w", targetPU, ErrNodeDown)
	}
	n.xcall(p)
	target := n.Shim.Node(targetPU)
	if target == nil {
		return XPID{}, fmt.Errorf("xpu: no shim node on PU %d", targetPU)
	}
	objs := slices.SortedFunc(maps.Keys(capv), func(a, b ObjID) int {
		return cmp.Or(strings.Compare(a.Kind, b.Kind), strings.Compare(a.UUID, b.UUID))
	})
	for _, obj := range objs {
		if _, err := n.Shim.grantable(obj); err != nil {
			return XPID{}, err
		}
	}
	if n.PU.ID != targetPU {
		if _, err := n.Shim.Machine.Transfer(p, n.Host.ID, target.Host.ID, 256); err != nil {
			return XPID{}, err
		}
	}
	child := target.OS.Spawn(p, name)
	x := target.Register(child)
	for _, obj := range objs {
		// A FIFO closed while the child spawned is skipped: no Unlink
		// would drop a grant on it.
		if f, err := n.Shim.grantable(obj); err == nil {
			n.Shim.grant(x, obj, f, capv[obj])
		}
	}
	if body != nil {
		n.Shim.Env.Spawn(fmt.Sprintf("%s@pu%d", name, targetPU), func(sp *sim.Proc) {
			body(sp, target, child)
		})
	}
	return x, nil
}
