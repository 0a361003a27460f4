// Package lang models the forkable language runtimes (Python and Node.js)
// that host CPU/DPU serverless functions.
//
// The paper's cfork (§4.2) lifts the fork mechanism from the OS into the
// language runtime: the template runtime temporarily merges its auxiliary
// threads into one, saves the multi-threaded contexts in memory, performs a
// plain OS fork (which only propagates the forking thread), and re-expands
// the threads in the child. The child then migrates into a pre-created
// "function container" (namespaces + cgroup), loads the function's code, and
// connects back to the Molecule runtime.
//
// The model charges each protocol step its calibrated cost and performs real
// page-table operations on the simulated OS, so both the latency breakdown
// (Fig 11a) and the memory sharing effects (Fig 11b/c) emerge from the same
// mechanism.
package lang

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/localos"
	"repro/internal/params"
	"repro/internal/sim"
)

// Kind names a language runtime.
type Kind string

const (
	Python Kind = "python"
	Node   Kind = "nodejs"
)

// Spec describes a language runtime's cost/footprint profile.
type Spec struct {
	Kind       Kind
	InitCost   time.Duration // cold interpreter boot + wrapper import (CPU time)
	BasePages  int           // resident footprint of the idle runtime
	AuxThreads int           // helper threads merged/expanded around fork
}

// SpecFor returns the profile for a runtime kind.
func SpecFor(k Kind) (Spec, error) {
	switch k {
	case Python:
		return Spec{Kind: Python, InitCost: params.PythonInitTime,
			BasePages: params.PythonRuntimePages, AuxThreads: 2}, nil
	case Node:
		return Spec{Kind: Node, InitCost: params.NodeInitTime,
			BasePages: params.NodeRuntimePages, AuxThreads: 4}, nil
	default:
		return Spec{}, fmt.Errorf("lang: unsupported runtime %q", k)
	}
}

// startupScale returns the startup-work multiplier for a PU (slow DPU cores
// and I/O stretch cold boot far more than steady-state compute).
func startupScale(pu *hw.PU) float64 {
	if pu == nil {
		return 1.0
	}
	if pu.StartupFactor > 0 {
		return pu.StartupFactor
	}
	if pu.Kind == hw.DPU {
		return params.DPUStartupPenalty
	}
	return 1.0
}

func scaled(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// Instance is one language-runtime process: either a template (generic,
// forkable) or a function instance (specialized, serving requests).
type Instance struct {
	Spec Spec
	OS   *localos.OS
	Proc *localos.Process

	baseVPN    int // first page of the runtime's base footprint
	funcVPN    int // first page of the function's private working set
	FuncID     string
	IsTemplate bool
	merged     bool // threads currently merged for forking
	// COWPending marks a freshly forked instance whose first request will
	// fault in its copy-on-write pages (§6.6 warm-boot discussion).
	COWPending bool
}

// BootCold starts a fresh runtime process: spawn + interpreter init, with the
// base footprint mapped. It is the baseline cold-start path and also how
// templates are created.
func BootCold(p *sim.Proc, os *localos.OS, spec Spec, name string, template bool) *Instance {
	pr := os.Spawn(p, name)
	f := startupScale(os.PU)
	p.Sleep(scaled(spec.InitCost, f))
	inst := &Instance{Spec: spec, OS: os, Proc: pr, IsTemplate: template}
	inst.baseVPN = pr.AS.Map(spec.BasePages)
	pr.Threads = 1 + spec.AuxThreads
	return inst
}

// LoadFunction loads the function's code and dependencies into the runtime,
// dirtying the instance's private working set.
func (inst *Instance) LoadFunction(p *sim.Proc, funcID string) {
	f := startupScale(inst.OS.PU)
	p.Sleep(scaled(params.FuncLoadTime, f))
	inst.FuncID = funcID
	if inst.funcVPN == 0 {
		inst.funcVPN = inst.Proc.AS.Map(params.FuncPrivatePages)
	}
	// Loading also dirties part of the runtime's own pages (imports,
	// heap warm-up) — the part of the template that will never be shared.
	dirty := int(float64(inst.Spec.BasePages) * (1 - params.TemplateSharedFraction))
	inst.OS.Touch(p, inst.Proc, inst.baseVPN, dirty)
}

// ImportResidual imports the packages the instance's template ancestor did
// not already hold, plus the function's private import tail — initialization
// work (app code, config, connections) no template can pre-run. Import CPU
// time scales with the PU's startup factor like every startup-path cost;
// the imported packages map fresh private pages.
func (inst *Instance) ImportResidual(p *sim.Proc, residual PkgSet, tail time.Duration) {
	f := startupScale(inst.OS.PU)
	if d := residual.ImportCost() + tail; d > 0 {
		p.Sleep(scaled(d, f))
	}
	if pages := residual.ImportPages(); pages > 0 {
		inst.Proc.AS.Map(pages)
	}
}

// MergeThreads collapses the runtime's auxiliary threads into the main one,
// saving their contexts in memory, so the process becomes plainly forkable.
func (inst *Instance) MergeThreads(p *sim.Proc) {
	if inst.merged || inst.Proc.Threads <= 1 {
		inst.merged = true
		inst.Proc.Threads = 1
		return
	}
	aux := inst.Proc.Threads - 1
	f := startupScale(inst.OS.PU)
	p.Sleep(scaled(time.Duration(aux)*params.CforkThreadMergeTime, f))
	inst.Proc.Threads = 1
	inst.merged = true
}

// ExpandThreads restores the merged thread contexts after a fork.
func (inst *Instance) ExpandThreads(p *sim.Proc) {
	if !inst.merged {
		return
	}
	aux := inst.Spec.AuxThreads
	f := startupScale(inst.OS.PU)
	p.Sleep(scaled(time.Duration(aux)*params.CforkThreadExpandTime, f))
	inst.Proc.Threads = 1 + aux
	inst.merged = false
}

// BaselineColdStart is the unoptimized startup path used by Molecule-homo
// and commodity platforms: create a container, boot the language runtime in
// it, and load the function's code (Fig 11a "Baseline").
func BaselineColdStart(p *sim.Proc, os *localos.OS, spec Spec, funcID, name string) *Instance {
	f := startupScale(os.PU)
	p.Sleep(scaled(params.ContainerCreateTime, f))
	ns := os.NewNamespace("c-" + name)
	cg := os.NewCgroup("c-"+name, 1, 1<<28)
	inst := BootCold(p, os, spec, name, false)
	inst.Proc.NS, inst.Proc.CG = ns, cg
	inst.LoadFunction(p, funcID)
	return inst
}

// CforkOptions select the optimizations of the Fig 11a breakdown.
type CforkOptions struct {
	// PreparedContainer uses a pre-initialized function container instead of
	// creating one during the fork ("FuncContainer").
	PreparedContainer bool
	// CpusetMutexPatch applies the kernel cpuset semaphore→mutex patch
	// ("Cpuset opt").
	CpusetMutexPatch bool
	// Container is the pre-created function container to join when
	// PreparedContainer is set. When nil and PreparedContainer is set, a
	// zero-cost placeholder namespace/cgroup pair is fabricated.
	Namespace *localos.Namespace
	Cgroup    *localos.Cgroup
	// KeepTemplateMerged leaves the template parked single-threaded after
	// the fork instead of re-expanding its auxiliary threads. Zygote-tree
	// templates stay merged between forks (SOCK-style), so consecutive
	// forks skip the merge step entirely.
	KeepTemplateMerged bool
}

// Cfork produces a new function instance from a template via the paper's
// container-fork protocol. The returned instance shares the template's
// memory copy-on-write and is loaded with funcID. Besides the instance and
// its process, a fork allocates the process's name (ProcName); the
// container's names only when the caller did not prepare a container.
//
//molecule:hotpath
func Cfork(p *sim.Proc, tmpl *Instance, funcID string, opts CforkOptions) (*Instance, error) {
	if !tmpl.IsTemplate {
		return nil, fmt.Errorf("lang: cfork source %q is not a template", tmpl.FuncID)
	}
	os := tmpl.OS
	f := startupScale(os.PU)

	ns, cg := opts.Namespace, opts.Cgroup
	if !opts.PreparedContainer {
		// Create the function container on the critical path (naive cfork).
		p.Sleep(scaled(params.ContainerCreateTime, f))
		ns, cg = funcContainer(os, funcID, nil, nil)
	} else if ns == nil || cg == nil {
		ns, cg = funcContainer(os, funcID, ns, cg)
	}

	// 1. Merge runtime threads so plain fork is safe.
	tmpl.MergeThreads(p)

	// 2. OS-level COW fork of the single-threaded template.
	childProc, err := os.Fork(p, tmpl.Proc, ProcName(funcID))
	if err != nil {
		return nil, err
	}

	child := &Instance{
		Spec:    tmpl.Spec,
		OS:      os,
		Proc:    childProc,
		baseVPN: tmpl.baseVPN,
		merged:  true,
	}

	// 3. The child reconfigures its namespaces and cgroup to the function
	// container's.
	os.JoinNamespace(p, childProc, ns)
	os.JoinCgroup(p, childProc, cg, opts.CpusetMutexPatch)

	// 4. Re-expand threads in both template and child.
	child.ExpandThreads(p)
	if !opts.KeepTemplateMerged {
		tmpl.ExpandThreads(p)
	}

	// 5. Load the function's code and connect back to Molecule.
	child.COWPending = true
	child.LoadFunction(p, funcID)
	p.Sleep(scaled(params.CforkConnectTime, f))
	return child, nil
}

// funcContainer fills in whichever of the function container's namespace
// and cgroup is missing, both named "fc-<funcID>".
func funcContainer(os *localos.OS, funcID string, ns *localos.Namespace, cg *localos.Cgroup) (*localos.Namespace, *localos.Cgroup) {
	name := "fc-" + funcID
	if ns == nil {
		ns = os.NewNamespace(name)
	}
	if cg == nil {
		cg = os.NewCgroup(name, 1, 1<<28)
	}
	return ns, cg
}

// ProcName returns the process name of a function instance: "fn-<funcID>".
func ProcName(funcID string) string { return "fn-" + funcID }

// Invoke runs the loaded function's handler for the given CPU-time cost,
// scaled by the PU's speed. A freshly forked instance's first request pays
// the copy-on-write fault penalty; once its working set is private, later
// requests do not (§6.6).
func (inst *Instance) Invoke(p *sim.Proc, cpuCost time.Duration, forked bool) {
	p.Sleep(inst.StartHandler(cpuCost, forked))
}

// StartHandler starts one request's handler and returns how long it runs:
// Invoke without the sleep, for a caller that waits as a stepped wait.
func (inst *Instance) StartHandler(cpuCost time.Duration, forked bool) time.Duration {
	d := inst.OS.PU.ComputeTime(cpuCost)
	if forked && inst.COWPending {
		d += params.CforkCOWFaultPenalty
		inst.COWPending = false
	}
	return d
}

// Exit terminates the instance's process, releasing its memory.
func (inst *Instance) Exit() { inst.OS.Exit(inst.Proc) }

// RSSBytes returns the instance's resident set size in bytes.
func (inst *Instance) RSSBytes() int64 {
	return int64(inst.Proc.AS.RSSPages()) * params.PageSize
}

// PSSBytes returns the instance's proportional set size in bytes.
func (inst *Instance) PSSBytes() float64 {
	return inst.Proc.AS.PSSPages() * params.PageSize
}

// Snapshot is a checkpointed instance image: the alternative startup
// optimization to fork (Fig 15's design space — Replayable Execution,
// FireCracker snapshots). Restoring shares the snapshot's pages through the
// page cache, so restored instances also enjoy memory sharing, but the
// restore itself costs tens of milliseconds versus cfork's single-digit.
type Snapshot struct {
	Spec   Spec
	FuncID string
	image  *Instance // frozen donor whose pages restores share
}

// TakeSnapshot checkpoints a loaded instance. The donor instance remains
// usable; the snapshot pins its memory image.
func TakeSnapshot(p *sim.Proc, inst *Instance) (*Snapshot, error) {
	if inst.FuncID == "" {
		return nil, fmt.Errorf("lang: snapshot of unloaded instance")
	}
	f := startupScale(inst.OS.PU)
	p.Sleep(scaled(params.SnapshotTakeTime, f))
	// Freeze a COW copy as the canonical image so later writes by the donor
	// do not leak into restores.
	frozen := &Instance{
		Spec:    inst.Spec,
		OS:      inst.OS,
		Proc:    &localos.Process{AS: inst.Proc.AS.Fork(), Threads: 1},
		baseVPN: inst.baseVPN,
		funcVPN: inst.funcVPN,
		FuncID:  inst.FuncID,
	}
	return &Snapshot{Spec: inst.Spec, FuncID: inst.FuncID, image: frozen}, nil
}

// Restore produces a new instance from the snapshot: pages map shared from
// the snapshot image (page cache) and the runtime state rehydrates in
// SnapshotRestoreTime. No fork protocol, no thread merge, no dependency
// import — but an order of magnitude slower than cfork.
func (s *Snapshot) Restore(p *sim.Proc, os *localos.OS) *Instance {
	f := startupScale(os.PU)
	p.Sleep(scaled(params.SnapshotRestoreTime, f))
	pr := os.SpawnFromImage(p, "restored-"+s.FuncID, s.image.Proc.AS.Fork(), 1+s.Spec.AuxThreads)
	inst := &Instance{
		Spec:    s.Spec,
		OS:      os,
		Proc:    pr,
		baseVPN: s.image.baseVPN,
		funcVPN: s.image.funcVPN,
		FuncID:  s.FuncID,
	}
	p.Sleep(scaled(params.CforkConnectTime, f))
	return inst
}
