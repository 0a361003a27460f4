package xpu

import (
	"fmt"

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
}

// Len reports queued messages.
func (f *XPUFIFO) Len() int { return f.ch.Len() }

// Closed reports whether the FIFO has been closed.
func (f *XPUFIFO) Closed() bool { return f.closed }

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
	f := &XPUFIFO{
		UUID:     uuid,
		Home:     n.PU.ID,
		Owner:    caller,
		homeHost: n.Host.ID,
		ch:       sim.NewChan[localos.Message](n.Shim.Env, capacity),
	}
	n.Shim.fifos[uuid] = f
	obj := ObjID{Kind: "fifo", UUID: uuid}
	n.Shim.grantLocal(caller, obj, PermRead|PermWrite|PermOwner)
	n.broadcast(p) // UUID uniqueness + owner capability propagate eagerly
	return &FD{fifo: f, node: n, pid: caller, obj: obj}, nil
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
	return &FD{fifo: f, node: n, pid: caller, obj: obj}, nil
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
// physical home pull the payload across the interconnect.
//
//molecule:hotpath
func (fd *FD) Read(p *sim.Proc) (localos.Message, error) {
	n := fd.node
	if err := n.failfast(); err != nil {
		return localos.Message{}, err
	}
	if n.Shim.down(fd.fifo.Home) {
		return localos.Message{}, fmt.Errorf("xpu: FIFO %q home PU %d: %w", fd.fifo.UUID, fd.fifo.Home, ErrNodeDown)
	}
	n.xcall(p)
	if !fd.hasCap(PermRead) {
		return localos.Message{}, fmt.Errorf("xpu: %v lacks read permission on FIFO %q", fd.pid, fd.fifo.UUID)
	}
	m, ok := fd.fifo.ch.Recv(p)
	if !ok {
		return localos.Message{}, fmt.Errorf("xpu: FIFO %q closed", fd.fifo.UUID)
	}
	// The Recv may have blocked for arbitrary virtual time; re-run the
	// fail-fast checks so a reader whose node (or the queue's home) crashed
	// while it was parked surfaces ErrNodeDown instead of a stale read.
	if err := n.failfast(); err != nil {
		return localos.Message{}, err
	}
	if n.Shim.down(fd.fifo.Home) {
		return localos.Message{}, fmt.Errorf("xpu: FIFO %q home PU %d: %w", fd.fifo.UUID, fd.fifo.Home, ErrNodeDown)
	}
	n.Shim.recordDepth(fd.fifo)
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
	n := fd.node
	if err := n.failfast(); err != nil {
		return nil, err
	}
	if n.Shim.down(fd.fifo.Home) {
		return nil, fmt.Errorf("xpu: FIFO %q home PU %d: %w", fd.fifo.UUID, fd.fifo.Home, ErrNodeDown)
	}
	n.xcall(p)
	if !fd.hasCap(PermRead) {
		return nil, fmt.Errorf("xpu: %v lacks read permission on FIFO %q", fd.pid, fd.fifo.UUID)
	}
	first, ok := fd.fifo.ch.Recv(p)
	if !ok {
		return nil, fmt.Errorf("xpu: FIFO %q closed", fd.fifo.UUID)
	}
	if err := n.failfast(); err != nil {
		return nil, err
	}
	if n.Shim.down(fd.fifo.Home) {
		return nil, fmt.Errorf("xpu: FIFO %q home PU %d: %w", fd.fifo.UUID, fd.fifo.Home, ErrNodeDown)
	}
	out := make([]localos.Message, 1, max)
	out[0] = first
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

// SpawnBody is the program run by an xSpawn'd process: it executes as a
// simulation process on the target PU with its OS-level process handle.
type SpawnBody func(p *sim.Proc, node *Node, self *localos.Process)

// XSpawn implements xSpawn: start a new program on another PU (Table 2).
// The request travels over the interconnect to the target node, whose OS
// spawns the process; capv capabilities are granted to the child explicitly
// (no implicit permission inheritance, §3.4). It returns the child's
// xpu_pid.
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
	if n.PU.ID != targetPU {
		if _, err := n.Shim.Machine.Transfer(p, n.Host.ID, target.Host.ID, 256); err != nil {
			return XPID{}, err
		}
	}
	child := target.OS.Spawn(p, name)
	x := target.Register(child)
	for obj, perm := range capv {
		n.Shim.grantLocal(x, obj, perm)
	}
	if body != nil {
		n.Shim.Env.Spawn(fmt.Sprintf("%s@pu%d", name, targetPU), func(sp *sim.Proc) {
			body(sp, target, child)
		})
	}
	return x, nil
}
