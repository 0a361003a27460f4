// Package hw models the heterogeneous computer: processing units (host CPU,
// DPUs, FPGAs, GPUs), the interconnects between them (RDMA over PCIe,
// DMA, shared memory, and the host network stack), and the FPGA device's
// reconfiguration state machine.
//
// The model is purely structural + temporal: transfers and device operations
// advance the simulation clock of the owning sim.Env according to calibrated
// latency/bandwidth parameters (see internal/params). It knows nothing about
// serverless; the OS, shim, and runtime layers are built on top.
package hw

import (
	"fmt"
	"time"

	"repro/internal/params"
	"repro/internal/sim"
)

// PUKind classifies a processing unit.
type PUKind int

const (
	CPU PUKind = iota
	DPU
	FPGA
	GPU
	// SmartSSD is a computational-storage device (§2.1's smart I/O devices);
	// no built-in runtime ships for it — examples/newpu shows the §6.8
	// recipe for adding one.
	SmartSSD
)

var puKindNames = map[PUKind]string{
	CPU: "CPU", DPU: "DPU", FPGA: "FPGA", GPU: "GPU", SmartSSD: "SmartSSD",
}

func (k PUKind) String() string {
	if s, ok := puKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("PUKind(%d)", int(k))
}

// GeneralPurpose reports whether the PU runs a commodity OS and arbitrary
// programs (CPU and DPU) as opposed to a domain-specific accelerator.
func (k PUKind) GeneralPurpose() bool { return k == CPU || k == DPU }

// PUID identifies a processing unit within one machine.
type PUID int

// PU describes one processing unit.
type PU struct {
	ID      PUID
	Kind    PUKind
	Name    string  // e.g. "host", "bf1-0", "f1-3"
	Cores   int     // general-purpose cores (0 for accelerators)
	FreqMHz int     // core frequency
	Memory  int64   // bytes of local memory
	Speed   float64 // compute latency multiplier relative to the host CPU (1.0 = host)
	// StartupFactor scales startup-path work (process spawn, runtime init,
	// container creation): slow cores plus slow storage stretch cold boots
	// far more than steady-state compute (Fig 10b, Fig 14c/d).
	StartupFactor float64

	// Device is non-nil for FPGA PUs.
	Device *FPGADevice
}

// ComputeTime converts a baseline CPU-time cost into this PU's execution
// time by applying the PU's speed factor.
func (pu *PU) ComputeTime(cpuCost time.Duration) time.Duration {
	if pu.Speed <= 0 {
		return cpuCost
	}
	return time.Duration(float64(cpuCost) * pu.Speed)
}

// StartupTime converts baseline CPU-time startup work into this PU's time
// by applying the startup factor.
func (pu *PU) StartupTime(cpuCost time.Duration) time.Duration {
	if pu.StartupFactor <= 0 {
		return cpuCost
	}
	return time.Duration(float64(cpuCost) * pu.StartupFactor)
}

// LinkKind classifies an interconnect between two PUs.
type LinkKind int

const (
	// LinkLocal is intra-PU communication (same OS, shared memory).
	LinkLocal LinkKind = iota
	// LinkRDMA is PCIe RDMA, the CPU<->DPU path on the evaluation machine.
	LinkRDMA
	// LinkDMA is PCIe DMA, the CPU<->FPGA/GPU path.
	LinkDMA
	// LinkNetwork is the kernel TCP/HTTP path used by baseline systems and
	// by cross-PU communication when no direct interconnect is exploited.
	LinkNetwork
)

var linkKindNames = map[LinkKind]string{
	LinkLocal: "local", LinkRDMA: "rdma", LinkDMA: "dma", LinkNetwork: "network",
}

func (k LinkKind) String() string {
	if s, ok := linkKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("LinkKind(%d)", int(k))
}

// Link is a point-to-point interconnect with a base latency plus a
// size-proportional term.
type Link struct {
	Kind     LinkKind
	BaseLat  time.Duration
	Bandwith float64 // bytes per second; 0 means size-independent
}

// TransferTime returns the one-way latency for a message of n bytes.
func (l Link) TransferTime(n int) time.Duration {
	d := l.BaseLat
	if l.Bandwith > 0 && n > 0 {
		d += time.Duration(float64(n) / l.Bandwith * float64(time.Second))
	}
	return d
}

// FaultInjector vets transfers before they charge the interconnect. It is
// consumer-side so hw need not import the faults package; *faults.Plan
// implements it. A returned error fails the transfer without charging any
// time; inflate > 1 stretches both latency phases (a degraded link).
type FaultInjector interface {
	TransferFault(a, b PUID) (inflate float64, err error)
}

// Machine is a heterogeneous computer: a set of PUs plus the interconnect
// matrix between them.
type Machine struct {
	Env *sim.Env

	// Faults, when non-nil, is consulted on every Transfer. Nil (the
	// default) costs one pointer check and keeps timing byte-identical.
	Faults FaultInjector

	pus   []*PU
	links map[[2]PUID]Link
	// linkCh serializes the bandwidth phase of transfers on shared-medium
	// links (PCIe RDMA/DMA): concurrent bulk transfers in one direction
	// queue behind each other, while the base-latency phase (descriptor
	// setup) still overlaps.
	linkCh map[[2]PUID]*sim.Resource
}

// NewMachine returns an empty machine bound to env.
func NewMachine(env *sim.Env) *Machine {
	return &Machine{
		Env:    env,
		links:  make(map[[2]PUID]Link),
		linkCh: make(map[[2]PUID]*sim.Resource),
	}
}

// AddPU registers a PU and assigns its ID. A local (shared-memory) link to
// itself is installed automatically.
func (m *Machine) AddPU(pu *PU) *PU {
	pu.ID = PUID(len(m.pus))
	m.pus = append(m.pus, pu)
	m.links[[2]PUID{pu.ID, pu.ID}] = Link{Kind: LinkLocal, BaseLat: params.ShmHandoffLatency}
	return pu
}

// PUs returns the machine's processing units in ID order.
func (m *Machine) PUs() []*PU { return m.pus }

// PU returns the processing unit with the given ID, or nil.
func (m *Machine) PU(id PUID) *PU {
	if int(id) < 0 || int(id) >= len(m.pus) {
		return nil
	}
	return m.pus[id]
}

// PUsOfKind returns all PUs of the given kind, in ID order.
func (m *Machine) PUsOfKind(k PUKind) []*PU {
	var out []*PU
	for _, pu := range m.pus {
		if pu.Kind == k {
			out = append(out, pu)
		}
	}
	return out
}

// Connect installs a bidirectional link between two PUs. RDMA and DMA
// links are shared media: their bandwidth phase serializes per direction.
func (m *Machine) Connect(a, b PUID, l Link) {
	m.links[[2]PUID{a, b}] = l
	m.links[[2]PUID{b, a}] = l
	if l.Kind == LinkRDMA || l.Kind == LinkDMA {
		m.linkCh[[2]PUID{a, b}] = sim.NewResource(m.Env, 1)
		m.linkCh[[2]PUID{b, a}] = sim.NewResource(m.Env, 1)
	}
}

// LinkBetween returns the link between two PUs and whether one exists.
func (m *Machine) LinkBetween(a, b PUID) (Link, bool) {
	l, ok := m.links[[2]PUID{a, b}]
	return l, ok
}

// Transfer moves n bytes from PU a to PU b, sleeping the calling process
// for the link's transfer time. On shared-medium links the bandwidth phase
// contends with concurrent transfers in the same direction. It returns the
// link used.
func (m *Machine) Transfer(p *sim.Proc, a, b PUID, n int) (Link, error) {
	l, ok := m.LinkBetween(a, b)
	if !ok {
		return Link{}, fmt.Errorf("hw: no link between PU %d and PU %d", a, b)
	}
	inflate := 1.0
	if m.Faults != nil {
		var err error
		if inflate, err = m.Faults.TransferFault(a, b); err != nil {
			return l, err
		}
	}
	baseLat := l.BaseLat
	bwTime := l.TransferTime(n) - l.BaseLat
	if inflate > 1 {
		baseLat = time.Duration(float64(baseLat) * inflate)
		bwTime = time.Duration(float64(bwTime) * inflate)
	}
	p.Sleep(baseLat)
	if bwTime <= 0 {
		return l, nil
	}
	if ch, ok := m.linkCh[[2]PUID{a, b}]; ok {
		ch.Acquire(p)
		p.Sleep(bwTime)
		ch.Release()
	} else {
		p.Sleep(bwTime)
	}
	return l, nil
}

// TransferBatch moves a vector of payloads (sizes in bytes) from PU a to
// PU b as one doorbell: the link's base latency is paid once for the whole
// batch — the descriptors are posted together — while the bandwidth phase
// still charges every byte and contends on the shared medium as a single
// burst. This is the amortization that makes vectorized nIPC cheaper than
// per-message writes on high-base-latency links (RDMA/DMA); on a zero-cost
// local link it degenerates to the per-message cost. The fault plan is
// consulted once: the batch is one hardware operation.
func (m *Machine) TransferBatch(p *sim.Proc, a, b PUID, sizes []int) (Link, error) {
	l, ok := m.LinkBetween(a, b)
	if !ok {
		return Link{}, fmt.Errorf("hw: no link between PU %d and PU %d", a, b)
	}
	if len(sizes) == 0 {
		return l, nil
	}
	inflate := 1.0
	if m.Faults != nil {
		var err error
		if inflate, err = m.Faults.TransferFault(a, b); err != nil {
			return l, err
		}
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	baseLat := l.BaseLat
	bwTime := l.TransferTime(total) - l.BaseLat
	if inflate > 1 {
		baseLat = time.Duration(float64(baseLat) * inflate)
		bwTime = time.Duration(float64(bwTime) * inflate)
	}
	p.Sleep(baseLat)
	if bwTime <= 0 {
		return l, nil
	}
	if ch, ok := m.linkCh[[2]PUID{a, b}]; ok {
		ch.Acquire(p)
		p.Sleep(bwTime)
		ch.Release()
	} else {
		p.Sleep(bwTime)
	}
	return l, nil
}

// NetworkTransferTime is the latency of a message of n bytes over the
// baseline network/HTTP path between (or within) PUs, including the software
// stack penalty on slow DPU cores. Used by baseline systems that do not
// exploit the direct interconnect.
func (m *Machine) NetworkTransferTime(a, b PUID, n int) time.Duration {
	base := params.NetworkBaseLatency
	stack := func(id PUID) time.Duration {
		if pu := m.PU(id); pu != nil && pu.Kind == DPU {
			return time.Duration(float64(base) * (params.NetworkDPUPenalty - 1) / 2)
		}
		return 0
	}
	d := base + stack(a) + stack(b)
	if n > 0 {
		d += time.Duration(float64(n) / params.NetworkBandwidth * float64(time.Second))
	}
	return d
}

// Config selects the machine topologies used in the paper's evaluation.
type Config struct {
	DPUs       int  // number of Bluefield DPUs
	BF2        bool // model Bluefield-2 instead of Bluefield-1
	FPGAs      int  // number of F1 FPGAs
	GPUs       int  // number of GPUs (generality extension, §6.8)
	FPGABanks  int  // DRAM banks per FPGA (default params.FPGADRAMBanks)
	FPGARegion int  // concurrent execution regions per FPGA (default 4)
}

// Build constructs the machine: one host CPU plus the requested devices,
// fully connected with the interconnects from the paper's testbed
// (CPU<->DPU over RDMA, CPU<->FPGA/GPU over DMA, DPU<->FPGA via the host,
// which Molecule §5 notes is CPU-intercepted).
func Build(env *sim.Env, cfg Config) *Machine {
	m := NewMachine(env)
	host := m.AddPU(&PU{
		Kind: CPU, Name: "host",
		Cores: params.HostCPUCores, FreqMHz: params.HostFreqMHz,
		Memory: params.HostMemory, Speed: params.CPUSpeedFactor, StartupFactor: 1,
	})
	for i := 0; i < cfg.DPUs; i++ {
		speed, freq, startup, name := params.BF1SpeedFactor, params.BF1FreqMHz,
			params.DPUStartupPenalty, fmt.Sprintf("bf1-%d", i)
		if cfg.BF2 {
			speed, freq, startup, name = params.BF2SpeedFactor, params.BF2FreqMHz,
				params.BF2StartupPenalty, fmt.Sprintf("bf2-%d", i)
		}
		dpu := m.AddPU(&PU{
			Kind: DPU, Name: name,
			Cores: params.DPUCores, FreqMHz: freq,
			Memory: params.DPUMemory, Speed: speed, StartupFactor: startup,
		})
		m.Connect(host.ID, dpu.ID, Link{Kind: LinkRDMA, BaseLat: params.RDMABaseLatency, Bandwith: params.RDMABandwidth})
	}
	banks := cfg.FPGABanks
	if banks <= 0 {
		banks = params.FPGADRAMBanks
	}
	regions := cfg.FPGARegion
	if regions <= 0 {
		regions = 4
	}
	for i := 0; i < cfg.FPGAs; i++ {
		dev := NewFPGADevice(env, banks, regions)
		fp := m.AddPU(&PU{
			Kind: FPGA, Name: fmt.Sprintf("f1-%d", i),
			Memory: 64 << 30, Speed: 1.0, StartupFactor: 1, Device: dev,
		})
		m.Connect(host.ID, fp.ID, Link{Kind: LinkDMA, BaseLat: params.DMABaseLatency, Bandwith: params.DMABandwidth})
	}
	for i := 0; i < cfg.GPUs; i++ {
		gp := m.AddPU(&PU{
			Kind: GPU, Name: fmt.Sprintf("gpu-%d", i),
			Memory: 32 << 30, Speed: 1.0, StartupFactor: 1,
		})
		m.Connect(host.ID, gp.ID, Link{Kind: LinkDMA, BaseLat: params.DMABaseLatency, Bandwith: params.DMABandwidth})
	}
	// Device<->device pairs without a direct path route through the host:
	// model as the two-hop sum (CPU-intercepted, §5 Limitations).
	for _, a := range m.pus {
		for _, b := range m.pus {
			if a.ID == b.ID || a.ID == host.ID || b.ID == host.ID {
				continue
			}
			if _, ok := m.LinkBetween(a.ID, b.ID); ok {
				continue
			}
			la, _ := m.LinkBetween(a.ID, host.ID)
			lb, _ := m.LinkBetween(host.ID, b.ID)
			m.Connect(a.ID, b.ID, Link{
				Kind:     la.Kind,
				BaseLat:  la.BaseLat + lb.BaseLat,
				Bandwith: minBW(la.Bandwith, lb.Bandwith),
			})
		}
	}
	return m
}

func minBW(a, b float64) float64 {
	if a == 0 {
		return b
	}
	if b == 0 || a < b {
		return a
	}
	return b
}
