// Package localos models the operating system running on one
// general-purpose processing unit (the host CPU or a DPU).
//
// Each OS instance is fully independent — its own PID space, FIFO namespace,
// namespaces/cgroups, and syscall cost model — so a machine with a host CPU
// and two DPUs is a genuine multi-OS system: the exact environment the
// paper's XPU-Shim exists to bridge. Nothing in this package can reach
// another OS instance; cross-PU interaction happens only through the
// hardware interconnect (internal/hw) driven by XPU-Shim (internal/xpu).
package localos

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/params"
	"repro/internal/sim"
)

// PID identifies a process within one OS instance.
type PID int

// Process is the OS-level bookkeeping for one process.
type Process struct {
	PID     PID
	Name    string
	AS      *mem.AddressSpace
	Threads int // live thread count (>=1)
	NS      *Namespace
	CG      *Cgroup
	exited  bool
}

// Exited reports whether the process has terminated.
func (pr *Process) Exited() bool { return pr.exited }

// Namespace is an isolation domain (a stand-in for the full set of Linux
// namespaces a container joins).
type Namespace struct {
	ID   int
	Name string
}

// Cgroup is a resource-control group.
type Cgroup struct {
	ID      int
	Name    string
	CPUSet  int // assigned cpuset width (cores)
	MemoryB int64
}

// CostModel carries the per-PU syscall latencies.
type CostModel struct {
	FIFOOp    time.Duration // one FIFO read or write
	ForkBase  time.Duration // COW fork of a single-threaded process
	SpawnBase time.Duration // fork+exec of a fresh program
	PageFault time.Duration // one COW/demand page fault
}

// CostsFor derives the cost model for a PU from the calibrated parameters.
func CostsFor(pu *hw.PU) CostModel {
	c := CostModel{
		FIFOOp:    params.FIFOOpCPU,
		ForkBase:  params.CforkOSForkTime,
		SpawnBase: params.ProcessSpawnTime,
		PageFault: 250 * time.Nanosecond,
	}
	if pu != nil && pu.Kind == hw.DPU {
		f := pu.StartupFactor
		if f <= 0 {
			f = params.DPUStartupPenalty
		}
		c.FIFOOp = params.FIFOOpDPU
		c.ForkBase = scale(c.ForkBase, f)
		c.SpawnBase = scale(c.SpawnBase, f)
		c.PageFault = scale(c.PageFault, f)
	}
	return c
}

func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// OS is one operating-system instance bound to a PU.
// FaultInjector lets a fault plan fail forks probabilistically. Declared
// consumer-side so localos need not import the faults package; *faults.Plan
// implements it.
type FaultInjector interface {
	ForkFault() error
}

type OS struct {
	Env   *sim.Env
	PU    *hw.PU
	Costs CostModel

	// Faults, when non-nil, is consulted on every Fork before any time is
	// charged. Nil keeps the fork path byte-identical.
	Faults FaultInjector

	nextPID PID
	nextNS  int
	nextCG  int
	procs   map[PID]*Process
	fifos   map[string]*FIFO
	// freeFIFOs holds removed FIFOs for CreateFIFO to reuse.
	freeFIFOs []*FIFO
}

// New returns an OS instance for the given PU with its derived cost model.
func New(env *sim.Env, pu *hw.PU) *OS {
	return &OS{
		Env:   env,
		PU:    pu,
		Costs: CostsFor(pu),
		procs: make(map[PID]*Process),
		fifos: make(map[string]*FIFO),
	}
}

// Spawn creates a fresh process (fork+exec semantics), charging the spawn
// cost to the calling simulation process. The new process starts with an
// empty address space.
func (os *OS) Spawn(p *sim.Proc, name string) *Process {
	p.Sleep(os.Costs.SpawnBase)
	return os.newProcess(name, mem.NewAddressSpace(), 1)
}

// SpawnFromImage creates a process whose address space comes from a
// restored snapshot image, charging the spawn cost.
func (os *OS) SpawnFromImage(p *sim.Proc, name string, as *mem.AddressSpace, threads int) *Process {
	p.Sleep(os.Costs.SpawnBase)
	if threads < 1 {
		threads = 1
	}
	return os.newProcess(name, as, threads)
}

// NewDetachedProcess registers a process without charging time — used for
// bootstrapping (e.g. the init daemons present when the simulation starts).
func (os *OS) NewDetachedProcess(name string) *Process {
	return os.newProcess(name, mem.NewAddressSpace(), 1)
}

func (os *OS) newProcess(name string, as *mem.AddressSpace, threads int) *Process {
	os.nextPID++
	pr := &Process{PID: os.nextPID, Name: name, AS: as, Threads: threads}
	os.procs[pr.PID] = pr
	return pr
}

// Fork clones parent copy-on-write, Unix style: only the calling thread
// propagates, so the child starts single-threaded. Forking a multi-threaded
// process is an error — the forkable language runtime must merge threads
// first (the paper's cfork protocol, §4.2).
func (os *OS) Fork(p *sim.Proc, parent *Process, childName string) (*Process, error) {
	if parent.exited {
		return nil, fmt.Errorf("localos: fork of exited process %d", parent.PID)
	}
	if parent.Threads != 1 {
		return nil, fmt.Errorf("localos: fork of multi-threaded process %d (%d threads); merge threads first",
			parent.PID, parent.Threads)
	}
	if os.Faults != nil {
		if err := os.Faults.ForkFault(); err != nil {
			return nil, fmt.Errorf("localos: fork on PU %d: %w", os.PU.ID, err)
		}
	}
	p.Sleep(os.Costs.ForkBase)
	child := os.newProcess(childName, parent.AS.Fork(), 1)
	child.NS = parent.NS
	child.CG = parent.CG
	return child, nil
}

// Exit terminates a process and releases its memory.
func (os *OS) Exit(pr *Process) {
	if pr.exited {
		return
	}
	pr.exited = true
	pr.AS.Release()
	delete(os.procs, pr.PID)
}

// Process returns the process with the given PID, or nil.
func (os *OS) Process(pid PID) *Process { return os.procs[pid] }

// NumProcesses reports the number of live processes.
func (os *OS) NumProcesses() int { return len(os.procs) }

// Touch makes pr write n pages starting at vpn, charging page-fault time
// for every COW break or demand allocation.
func (os *OS) Touch(p *sim.Proc, pr *Process, vpn, n int) {
	faults := pr.AS.Write(vpn, n)
	if faults > 0 {
		p.Sleep(time.Duration(faults) * os.Costs.PageFault)
	}
}

// NewNamespace allocates an isolation namespace.
func (os *OS) NewNamespace(name string) *Namespace {
	os.nextNS++
	return &Namespace{ID: os.nextNS, Name: name}
}

// NewCgroup allocates a cgroup.
func (os *OS) NewCgroup(name string, cpuset int, memoryB int64) *Cgroup {
	os.nextCG++
	return &Cgroup{ID: os.nextCG, Name: name, CPUSet: cpuset, MemoryB: memoryB}
}

// startupFactor is the PU's startup-path slowdown (1.0 on the host).
func (os *OS) startupFactor() float64 {
	if os.PU != nil && os.PU.StartupFactor > 0 {
		return os.PU.StartupFactor
	}
	return 1.0
}

// JoinNamespace moves pr into ns, charging the namespace-reconfiguration
// cost from the cfork protocol.
func (os *OS) JoinNamespace(p *sim.Proc, pr *Process, ns *Namespace) {
	p.Sleep(scale(params.CforkNamespaceJoinTime, os.startupFactor()))
	pr.NS = ns
}

// JoinCgroup moves pr into cg. The cpuset reassignment cost depends on the
// kernel build: the stock semaphore-protected cpuset vs the paper's
// semaphore→mutex patch (Fig 11a "Cpuset opt").
func (os *OS) JoinCgroup(p *sim.Proc, pr *Process, cg *Cgroup, mutexPatch bool) {
	if mutexPatch {
		p.Sleep(scale(params.CgroupCpusetMutexTime, os.startupFactor()))
	} else {
		p.Sleep(scale(params.CgroupCpusetSemaphoreTime, os.startupFactor()))
	}
	pr.CG = cg
}

// --- FIFOs ------------------------------------------------------------------

// Message is one datagram carried over a FIFO. Payload sizes drive
// bandwidth-dependent latency when the message crosses PUs.
type Message struct {
	From    string // sender identity (diagnostic)
	Kind    string // application-level tag
	Payload []byte
	Meta    any // structured payload for in-simulation convenience
}

// Size returns the payload size in bytes.
func (m Message) Size() int { return len(m.Payload) }

// FIFO is a named, message-granular pipe within one OS instance.
type FIFO struct {
	Name string
	os   *OS
	ch   *sim.Chan[Message]
}

// CreateFIFO creates (or returns the existing) FIFO with the given name.
func (os *OS) CreateFIFO(name string, capacity int) *FIFO {
	if f, ok := os.fifos[name]; ok {
		return f
	}
	var f *FIFO
	if n := len(os.freeFIFOs); n > 0 {
		f = os.freeFIFOs[n-1]
		os.freeFIFOs[n-1] = nil
		os.freeFIFOs = os.freeFIFOs[:n-1]
		f.Name = name
		f.ch.Reset(capacity)
	} else {
		f = &FIFO{Name: name, os: os, ch: sim.NewChan[Message](os.Env, capacity)}
	}
	os.fifos[name] = f
	return f
}

// NumFIFOs reports the number of named FIFOs.
func (os *OS) NumFIFOs() int { return len(os.fifos) }

// Remove unlinks f and recycles it for a later CreateFIFO on the same OS,
// charging no time and waking no one. The caller must drop every reference
// to f, and no process may be parked on it.
func (f *FIFO) Remove() {
	if f.os.fifos[f.Name] == f {
		delete(f.os.fifos, f.Name)
	}
	f.os.freeFIFOs = append(f.os.freeFIFOs, f)
}

// Close shuts the FIFO without unlinking its name: blocked readers wake with
// ok=false and blocked writers' Write reports false.
func (f *FIFO) Close() { f.ch.Close() }

// Write sends a message, charging one FIFO syscall. It reports false when
// the FIFO was closed, before or while the writer was blocked.
func (f *FIFO) Write(p *sim.Proc, m Message) bool {
	p.Sleep(f.os.Costs.FIFOOp)
	return f.ch.SendOrClosed(p, m)
}

// Reader is one FIFO read as a stepped wait (sim.Step): Step charges the
// read syscall, then waits for a message, and Finish returns it. A Reader
// serves one read at a time; Reset arms it.
type Reader struct {
	f     *FIFO
	phase uint8 // 0: charge the syscall; 1: receive; 2: parked among the receivers
	m     Message
	ok    bool
}

// Reset arms r for one read on f.
func (r *Reader) Reset(f *FIFO) { *r = Reader{f: f} }

// Step runs the read on from where it stopped; see sim.Step.
//
//molecule:hotpath
func (r *Reader) Step(p *sim.Proc, val any) bool {
	switch r.phase {
	case 0:
		r.phase = 1
		if !p.SleepStep(r.f.os.Costs.FIFOOp) {
			return false
		}
		fallthrough
	case 1:
		var got bool
		if r.ok, got = r.f.ch.RecvStep(p, &r.m); got {
			return true
		}
		r.phase = 2
		return false
	default:
		r.ok = r.f.ch.Handed(val, &r.m)
		return true
	}
}

// Settled reports, once r's wait is over, that the read took a message.
func (r *Reader) Settled() bool { return r.ok }

// Finish returns the message once r's wait is over; ok is false when the
// FIFO closed first.
func (r *Reader) Finish() (Message, bool) { return r.m, r.ok }

// Len reports queued messages.
func (f *FIFO) Len() int { return f.ch.Len() }
