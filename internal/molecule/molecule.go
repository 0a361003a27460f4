// Package molecule implements the Molecule serverless runtime for
// heterogeneous computers (§4 of the paper).
//
// Molecule runs on one general-purpose PU of a heterogeneous computer (the
// host CPU here) and manages functions on every other PU through XPU-Shim:
// executors are xSpawn'd onto general-purpose PUs and drive the local
// vectorized-sandbox runtime; accelerators (FPGA, GPU) get virtual shim
// nodes on the host that run runf/rung. The runtime implements the paper's
// two latency optimizations — cfork-based startup (§4.2) and nIPC-based
// direct-connect DAG communication (§4.3) — plus keep-alive instance
// caching with a greedy-dual policy and per-PU-type resource profiles.
package molecule

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/localos"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/xpu"
)

// StartupMode selects the cold-start mechanism.
type StartupMode int

const (
	// StartupCfork forks instances from language templates (§4.2, the
	// paper's contribution).
	StartupCfork StartupMode = iota
	// StartupPlain boots a fresh runtime per instance (the baseline path).
	StartupPlain
	// StartupSnapshot restores instances from per-function snapshots — the
	// Replayable/FireCracker-class alternative of the Fig 15 design space.
	StartupSnapshot
)

var startupModeNames = map[StartupMode]string{
	StartupCfork: "cfork", StartupPlain: "plain", StartupSnapshot: "snapshot",
}

func (m StartupMode) String() string {
	if s, ok := startupModeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("StartupMode(%d)", int(m))
}

// Options configure a Molecule runtime.
type Options struct {
	// UseCfork enables fork-based startup from language templates (§4.2).
	// When false, Startup selects the alternative mechanism. Retained as a
	// boolean for compatibility: UseCfork=true forces StartupCfork.
	UseCfork bool
	// Startup is read only when UseCfork is false: StartupSnapshot restores
	// from snapshots, and any other value boots plainly — including the zero
	// value, which is StartupCfork.
	Startup StartupMode
	// CpusetMutexPatch applies the kernel cpuset patch (Fig 11a). The
	// paper's server-side results (Fig 14) run without it.
	CpusetMutexPatch bool
	// Retention enables FPGA DRAM data retention for zero-copy chains
	// (§4.3).
	Retention bool
	// ErasePolicy for FPGA images; Molecule's default is NoErase.
	ErasePolicy sandbox.ErasePolicy
	// KeepWarmPerPU bounds the warm-instance cache per PU (0 = default).
	KeepWarmPerPU int
	// PrewarmContainers pre-creates this many function containers per
	// general-purpose PU off the critical path (the FuncContainer
	// optimization); they are replenished in the background.
	PrewarmContainers int
	// GenericTemplates disables §4.2's dedicated templates: cforked
	// children then import the function's dependencies on the critical
	// path instead of inheriting them from a per-function template.
	GenericTemplates bool
	// ZygoteTree replaces the single generic template per runtime with a
	// package-aware zygote forest (SOCK/Forklift lineage): cold starts fork
	// from the deepest pre-warmed template covering the function's package
	// manifest and pay only the residual imports plus the function's
	// private tail. Requires UseCfork; off (the default) leaves the flat
	// cfork path literally untouched.
	ZygoteTree bool
	// ZygoteBudgetMB caps the summed residual pages of specialized
	// templates per (runtime, PU). Zero picks params.ZygoteBudgetMB;
	// negative means no budget at all — the forest stays root-only, which
	// is flat cfork plus full on-child imports (the comparison baseline).
	ZygoteBudgetMB int
	// ZygoteFitInterval is how many observed cold starts trigger one
	// background fit round (0 = params.ZygoteFitInterval).
	ZygoteFitInterval int
	// ZygoteSeed seeds the fitter's deterministic tie-breaking (0 = 1).
	ZygoteSeed uint64
	// JitterPct adds deterministic per-request latency variation (e.g. 0.08
	// = ±8%), hash-derived from the request sequence so runs stay
	// reproducible. Zero (the default) disables it; calibration tests rely
	// on exact latencies.
	JitterPct float64
	// Recovery configures the per-invoke timeout / retry / failover policy.
	// The zero value disables it entirely: Invoke takes the exact pre-
	// recovery code path, keeping the golden report byte-identical.
	Recovery RecoveryOptions
}

// DefaultOptions returns the configuration the paper evaluates as
// "Molecule".
func DefaultOptions() Options {
	return Options{
		UseCfork:          true,
		CpusetMutexPatch:  false,
		Retention:         true,
		ErasePolicy:       sandbox.NoErase,
		KeepWarmPerPU:     64,
		PrewarmContainers: 8,
	}
}

// puNode bundles everything Molecule holds for one PU.
type puNode struct {
	pu   *hw.PU
	node *xpu.Node

	// General-purpose PUs.
	os        *localos.OS
	cr        *sandbox.ContainerRuntime
	execXPID  xpu.XPID // the executor process on this PU
	execDead  bool     // executor crashed; respawned on next command
	warm      map[string][]*instance
	capacity  int // max concurrent instances (density model)
	liveCount int

	// Accelerators: an FPGA node has runf, a GPU node rung, and accel is
	// that runtime's sandbox table, which the two share.
	runf  *sandbox.RunF
	rung  *sandbox.RunG
	accel accelSandboxes
	// fpgaVector is the set of functions currently baked into the image.
	fpgaVector []string
	// snapshots caches per-function checkpoint images (StartupSnapshot).
	snapshots map[string]*lang.Snapshot
	// busy accumulates handler execution time on this PU (utilization).
	busy time.Duration
	// sandboxSeq numbers FPGA/GPU sandbox IDs.
	sandboxSeq int
}

// Runtime is the Molecule serverless runtime for one heterogeneous
// computer.
type Runtime struct {
	Env      *sim.Env
	Machine  *hw.Machine
	Shim     *xpu.Shim
	Registry *workloads.Registry
	Opts     Options

	hostID hw.PUID
	nodes  map[hw.PUID]*puNode
	// order lists node PU IDs in machine order so every scan over nodes is
	// deterministic (map iteration order is not).
	order []hw.PUID
	funcs map[string]*Deployment
	cache *keepAlive
	bill  *Billing
	// warmTotal counts warm-pooled instances per function across all PUs.
	// It lets popWarm answer the common cases in O(1): a global miss skips
	// the node scan entirely. Every warm-pool mutation — release, popWarm,
	// destroy, keep-alive eviction, executor kill, crash reaping — keeps it
	// in sync (TestWarmTotalConsistency pins the invariant).
	warmTotal map[string]int

	// obs is the observability layer; nil (the default) disables all span
	// and metric recording at zero cost — every obs call site either
	// nil-checks rt.obs first or calls a nil-safe obs method.
	obs *obs.Observer

	// faults is the attached fault plan (AttachFaults); nil means a healthy
	// machine and zero-cost checks everywhere.
	faults *faults.Plan

	fifoSeq   int
	jitterSeq uint64

	// freeWirings holds released chain wirings for wireChain to reuse.
	freeWirings []*chainWiring
}

// xpuSink adapts *obs.Observer to the shim's consumer-side xpu.MetricSink,
// keeping the xpu package free of an obs import (base layers must not
// depend on reporting layers). Series handles returned here are cached by
// the shim, so the Intern cost is paid once per series, not per update.
type xpuSink struct{ o *obs.Observer }

func (s xpuSink) Counter(name, labelKey, labelValue string) xpu.Counter {
	return s.o.CounterSet(obs.Intern(name, obs.L(labelKey, labelValue)))
}

func (s xpuSink) Gauge(name, labelKey, labelValue string) xpu.Gauge {
	return s.o.GaugeSet(obs.Intern(name, obs.L(labelKey, labelValue)))
}

// sandboxSink is the same adapter for sandbox.MetricSink. It is a separate
// type because Go's nominal return types make xpu.Counter and
// sandbox.Counter distinct interfaces even with compatible method sets.
type sandboxSink struct{ o *obs.Observer }

func (s sandboxSink) Counter(name, labelKey, labelValue string) sandbox.Counter {
	return s.o.CounterSet(obs.Intern(name, obs.L(labelKey, labelValue)))
}

// SetObserver attaches (or, with nil, detaches) the observability layer.
// The observer is propagated to the XPU-Shim and every PU's sandbox
// runtime through their consumer-side metric sinks, and the tracer learns
// the machine's PU names so exported traces render one named track per PU.
func (rt *Runtime) SetObserver(o *obs.Observer) {
	rt.obs = o
	if o != nil {
		rt.Shim.SetMetrics(xpuSink{o})
	} else {
		rt.Shim.SetMetrics(nil)
	}
	for _, n := range rt.orderedNodes() {
		if n.cr != nil {
			if o != nil {
				n.cr.Metrics = sandboxSink{o}
			} else {
				n.cr.Metrics = nil
			}
		}
		if o != nil {
			o.Tracer.NamePU(int(n.pu.ID), fmt.Sprintf("PU %d (%s %s)", n.pu.ID, n.pu.Kind, n.pu.Name))
		}
	}
	if o != nil {
		o.Metrics.SetHelp("molecule_invocations_total", "Completed invocations by function, PU, and PU kind.")
		o.Metrics.SetHelp("molecule_cold_starts_total", "Invocations that cold-started an instance.")
		o.Metrics.SetHelp("molecule_warm_hits_total", "Invocations served from the keep-alive warm pool.")
		o.Metrics.SetHelp("molecule_invoke_latency_seconds", "End-to-end invocation latency in virtual time, by PU.")
		o.Metrics.SetHelp("molecule_startup_latency_seconds", "Cold-start sandbox acquisition latency in virtual time, by PU.")
		o.Metrics.SetHelp("molecule_keepalive_evictions_total", "Warm instances evicted by the greedy-dual keep-alive policy.")
		o.Metrics.SetHelp("molecule_nipc_commands_total", "Control-plane executor commands sent over the interconnect, by target PU.")
		o.Metrics.SetHelp("molecule_autoscale_scale_outs_total", "Autoscaler pool growth events, by function.")
		o.Metrics.SetHelp("molecule_autoscale_scale_ins_total", "Autoscaler pool shrink events (residents retired), by function.")
		o.Metrics.SetHelp("xpu_nipc_messages_total", "Cross-PU FIFO payloads by directed interconnect link.")
		o.Metrics.SetHelp("xpu_nipc_bytes_total", "Cross-PU FIFO payload bytes by directed interconnect link.")
		o.Metrics.SetHelp("xpu_fifo_depth", "Current queue depth of each XPU-FIFO.")
		o.Metrics.SetHelp("sandbox_cfork_total", "Sandboxes started by forking a language template (§4.2).")
		o.Metrics.SetHelp("sandbox_plain_boots_total", "Sandboxes started by cold-booting a fresh runtime.")
		o.Metrics.SetHelp("sandbox_pool_hits_total", "Sandbox creations served from the prepared container pool.")
		o.Metrics.SetHelp("sandbox_pool_misses_total", "Sandbox creations that built a container on the critical path.")
		o.Metrics.SetHelp("sandbox_cow_faults_total", "Handler invocations that paid copy-on-write faults after cfork.")
		o.Metrics.SetHelp("sandbox_zygote_forks_total", "Sandboxes forked from a zygote-forest template (any depth).")
		o.Metrics.SetHelp("sandbox_zygote_ancestor_hits_total", "Zygote forks that resolved to a specialized (non-root) template.")
		o.Metrics.SetHelp("sandbox_zygote_resets_total", "Zygote forests reset by executor kill or PU crash.")
		o.Metrics.SetHelp("molecule_invoke_retries_total", "Invocation attempts retried after a transient failure, by function.")
		o.Metrics.SetHelp("molecule_invoke_timeouts_total", "Invocation attempts abandoned by the per-invoke timeout, by function.")
		o.Metrics.SetHelp("molecule_failovers_total", "Pinned invocations re-placed onto a surviving PU after infrastructure failure.")
		o.Metrics.SetHelp("molecule_invoke_unavailable_total", "Invocations that exhausted every retry and returned ErrUnavailable.")
		o.Metrics.SetHelp("molecule_crash_evictions_total", "Warm instances evicted because their PU crashed, by PU and function.")
		o.Metrics.SetHelp("faults_injected_total", "Faults injected by the attached fault plan, by kind.")
	}
	if rt.faults != nil {
		rt.faults.Obs = o
	}
}

// Observer returns the attached observability layer (nil when disabled).
func (rt *Runtime) Observer() *obs.Observer { return rt.obs }

// puLabel renders a PU ID as the standard {pu="N"} metric label.
func puLabel(id hw.PUID) obs.Label { return obs.L("pu", strconv.Itoa(int(id))) }

// New builds a Molecule runtime over the machine: one OS and shim node per
// general-purpose PU, virtual shim nodes plus runf/rung for accelerators,
// and an executor xSpawn'd onto every non-host general-purpose PU. The
// calling process pays the bootstrap costs (template boots are charged when
// first used).
func New(p *sim.Proc, m *hw.Machine, reg *workloads.Registry, opts Options) (*Runtime, error) {
	env := p.Env()
	rt := &Runtime{
		Env:       env,
		Machine:   m,
		Shim:      xpu.NewShim(env, m),
		Registry:  reg,
		Opts:      opts,
		nodes:     make(map[hw.PUID]*puNode),
		funcs:     make(map[string]*Deployment),
		bill:      NewBilling(),
		warmTotal: make(map[string]int),
	}
	rt.cache = newKeepAlive(opts.KeepWarmPerPU)

	// Pass 1: general-purpose PUs get a local OS and a shim node.
	var host *hw.PU
	for _, pu := range m.PUs() {
		if !pu.Kind.GeneralPurpose() {
			continue
		}
		if host == nil && pu.Kind == hw.CPU {
			host = pu
		}
		os := localos.New(env, pu)
		node := rt.Shim.AddNode(pu, os)
		cr := sandbox.NewContainerRuntime(os)
		cr.UseCfork = opts.UseCfork
		cr.CpusetMutexPatch = opts.CpusetMutexPatch
		if opts.ZygoteTree && opts.UseCfork {
			cr.UseZygoteTree = true
			cr.ZygoteCfg = zygoteConfig(opts)
		}
		rt.nodes[pu.ID] = &puNode{
			pu: pu, node: node, os: os, cr: cr,
			warm:      make(map[string][]*instance),
			snapshots: make(map[string]*lang.Snapshot),
			capacity:  densityCapacity(pu),
		}
		rt.order = append(rt.order, pu.ID)
	}
	if host == nil {
		return nil, fmt.Errorf("molecule: machine has no host CPU")
	}
	rt.hostID = host.ID
	hostNode := rt.nodes[host.ID]

	// Pass 2: accelerators get virtual shim nodes on the host plus their
	// sandbox runtimes.
	for _, pu := range m.PUs() {
		switch pu.Kind {
		case hw.FPGA:
			vn := rt.Shim.AddVirtualNode(pu, host, hostNode.os)
			rf, err := sandbox.NewRunF(m, pu, host)
			if err != nil {
				return nil, err
			}
			rf.Policy = opts.ErasePolicy
			pu.Device.SetRetention(opts.Retention)
			rt.nodes[pu.ID] = &puNode{pu: pu, node: vn, runf: rf, accel: rf}
			rt.order = append(rt.order, pu.ID)
		case hw.GPU:
			vn := rt.Shim.AddVirtualNode(pu, host, hostNode.os)
			rg, err := sandbox.NewRunG(env, m, pu, host)
			if err != nil {
				return nil, err
			}
			rt.nodes[pu.ID] = &puNode{pu: pu, node: vn, rung: rg, accel: rg}
			rt.order = append(rt.order, pu.ID)
		}
	}

	// Pass 3: xSpawn an executor onto each non-host general-purpose PU;
	// the host runs its executor in-process.
	hostNode.execXPID = hostNode.node.Register(hostNode.os.NewDetachedProcess("molecule-executor"))
	for _, n := range rt.orderedNodes() {
		if n.pu.ID == rt.hostID || !n.pu.Kind.GeneralPurpose() {
			continue
		}
		x, err := hostNode.node.XSpawn(p, n.pu.ID, "molecule-executor", nil, nil)
		if err != nil {
			return nil, err
		}
		n.execXPID = x
	}

	// Pass 4: pre-create function containers off the critical path.
	if opts.PrewarmContainers > 0 {
		for _, n := range rt.orderedNodes() {
			if n.cr != nil {
				n.cr.Prewarm(p, opts.PrewarmContainers)
			}
		}
	}
	return rt, nil
}

// zygoteConfig maps the runtime options onto the forest's fitter knobs.
func zygoteConfig(opts Options) lang.ZygoteTreeConfig {
	cfg := lang.DefaultZygoteTreeConfig()
	switch {
	case opts.ZygoteBudgetMB < 0:
		cfg.BudgetPages = 0 // root-only: the flat-cfork comparison arm
	case opts.ZygoteBudgetMB > 0:
		cfg.BudgetPages = opts.ZygoteBudgetMB << 20 / params.PageSize
	}
	if opts.ZygoteFitInterval > 0 {
		cfg.FitInterval = opts.ZygoteFitInterval
	}
	if opts.ZygoteSeed != 0 {
		cfg.Seed = opts.ZygoteSeed
	}
	return cfg
}

// zygoteOn reports whether the zygote forest drives this runtime's cold
// starts.
func (rt *Runtime) zygoteOn() bool {
	return rt.Opts.ZygoteTree && rt.Opts.UseCfork
}

// densityCapacity models how many concurrent instances a PU's resources
// support (Fig 2a: 1000 on the host, ~256 per Bluefield DPU).
func densityCapacity(pu *hw.PU) int {
	switch pu.Kind {
	case hw.CPU:
		return params.DensityCPUInstances
	case hw.DPU:
		return params.DensityPerDPUInstances
	default:
		return 0
	}
}

// orderedNodes returns the per-PU state in machine (PU-ID) order.
func (rt *Runtime) orderedNodes() []*puNode {
	out := make([]*puNode, 0, len(rt.order))
	for _, id := range rt.order {
		out = append(out, rt.nodes[id])
	}
	return out
}

// HostID returns the PU running the Molecule control plane.
func (rt *Runtime) HostID() hw.PUID { return rt.hostID }

// Node returns Molecule's per-PU state (nil for unknown PUs). Exposed for
// benchmarks and tests.
func (rt *Runtime) Node(id hw.PUID) *puNode { return rt.nodes[id] }

// ContainerRuntimeOn returns the container runtime for a general-purpose
// PU, or nil.
func (rt *Runtime) ContainerRuntimeOn(id hw.PUID) *sandbox.ContainerRuntime {
	if n := rt.nodes[id]; n != nil {
		return n.cr
	}
	return nil
}

// RunFOn returns the FPGA runtime for an FPGA PU, or nil.
func (rt *Runtime) RunFOn(id hw.PUID) *sandbox.RunF {
	if n := rt.nodes[id]; n != nil {
		return n.runf
	}
	return nil
}

// RunGOn returns the GPU runtime for a GPU PU, or nil.
func (rt *Runtime) RunGOn(id hw.PUID) *sandbox.RunG {
	if n := rt.nodes[id]; n != nil {
		return n.rung
	}
	return nil
}

// Utilization returns a PU's accumulated-busy fraction of elapsed virtual
// time (0 when no time has passed).
func (rt *Runtime) Utilization(id hw.PUID) float64 {
	n := rt.nodes[id]
	if n == nil || rt.Env.Now() == 0 {
		return 0
	}
	return float64(n.busy) / float64(time.Duration(rt.Env.Now()))
}

// Billing returns the runtime's billing ledger.
func (rt *Runtime) Billing() *Billing { return rt.bill }

// SetCapacity overrides a general-purpose PU's instance capacity — used by
// scaled-down experiments.
func (rt *Runtime) SetCapacity(id hw.PUID, capacity int) {
	if n := rt.nodes[id]; n != nil && n.pu.Kind.GeneralPurpose() {
		n.capacity = capacity
	}
}

// Capacity reports the total instance capacity of all general-purpose PUs
// (the Fig 2a density metric). Alloc-free: the cluster gateway calls this
// on its scheduling hotpath.
func (rt *Runtime) Capacity() int {
	total := 0
	for _, id := range rt.order {
		total += rt.nodes[id].capacity
	}
	return total
}

// LiveInstances reports currently-placed instances across the machine.
// Alloc-free for the same reason as Capacity.
func (rt *Runtime) LiveInstances() int {
	total := 0
	for _, id := range rt.order {
		total += rt.nodes[id].liveCount
	}
	return total
}

// KillExecutor simulates an executor crash on the given PU. Warm instances
// managed by that executor are lost; the next command to the PU detects the
// failure and re-spawns the executor over XPU-Shim.
func (rt *Runtime) KillExecutor(p *sim.Proc, id hw.PUID) error {
	n := rt.nodes[id]
	if n == nil || !n.pu.Kind.GeneralPurpose() {
		return fmt.Errorf("molecule: PU %d runs no executor", id)
	}
	if id == rt.hostID {
		return fmt.Errorf("molecule: cannot kill the control-plane executor")
	}
	n.execDead = true
	// The executor's children die with it: drop the PU's warm pools, in
	// sorted function order so the teardown sequence is deterministic.
	fns := make([]string, 0, len(n.warm))
	for fn := range n.warm {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		pool := n.warm[fn]
		for _, inst := range pool {
			sandbox.DeleteOne(p, n.cr, inst.sandboxID)
			n.liveCount--
		}
		rt.warmTotal[fn] -= len(pool)
		delete(n.warm, fn)
	}
	// Specialized zygote templates are the executor's children too; the
	// generic root template survives, like the flat path's template.
	n.cr.ResetForests()
	return nil
}

// AttachFaults wires a fault plan through every layer Molecule manages: the
// interconnect (hw.Machine.Transfer), the XPU-Shim (fail-fast XPUcalls),
// and each general-purpose PU's OS and container runtime. Passing nil
// detaches everything, restoring the healthy byte-identical paths.
func (rt *Runtime) AttachFaults(pl *faults.Plan) {
	rt.faults = pl
	if pl == nil {
		rt.Machine.Faults = nil
		rt.Shim.Faults = nil
	} else {
		rt.Machine.Faults = pl
		rt.Shim.Faults = pl
		pl.Obs = rt.obs
	}
	for _, n := range rt.orderedNodes() {
		if n.os != nil {
			if pl == nil {
				n.os.Faults = nil
			} else {
				n.os.Faults = pl
			}
		}
		if n.cr != nil {
			if pl == nil {
				n.cr.Faults = nil
			} else {
				n.cr.Faults = pl
			}
		}
	}
}

// Faults returns the attached fault plan (nil on a healthy machine).
func (rt *Runtime) Faults() *faults.Plan { return rt.faults }

// puDown reports whether the fault plan has PU id crashed right now.
func (rt *Runtime) puDown(id hw.PUID) bool {
	return rt.faults != nil && id >= 0 && rt.faults.Down(id)
}

// reapCrashed evicts warm instances stranded on crashed PUs — their
// executor and sandboxes died with the PU, so serving them would hand out
// dead instances. Called on the recovery path before each attempt; pure
// bookkeeping, no virtual time charged.
func (rt *Runtime) reapCrashed(p *sim.Proc) {
	for _, n := range rt.orderedNodes() {
		if n.cr == nil || !rt.puDown(n.pu.ID) {
			continue
		}
		fns := make([]string, 0, len(n.warm))
		for fn := range n.warm {
			if len(n.warm[fn]) > 0 {
				fns = append(fns, fn)
			}
		}
		sort.Strings(fns) // map order is random; eviction order must not be
		for _, fn := range fns {
			for _, inst := range n.warm[fn] {
				sandbox.DeleteOne(p, n.cr, inst.sandboxID)
				n.liveCount--
				if o := rt.obs; o != nil {
					o.Counter("molecule_crash_evictions_total", puLabel(n.pu.ID), obs.L("fn", fn)).Inc()
				}
			}
			rt.warmTotal[fn] -= len(n.warm[fn])
			delete(n.warm, fn)
		}
		// Specialized zygote templates died with the PU; pinned nodes
		// drain first so address-space refcounts release exactly once.
		n.cr.ResetForests()
		// The executor died with its PU; it is respawned by the next
		// command once the PU revives.
		if n.pu.ID != rt.hostID {
			n.execDead = true
		}
	}
}

// ExecutorAlive reports whether the PU's executor is running.
func (rt *Runtime) ExecutorAlive(id hw.PUID) bool {
	n := rt.nodes[id]
	return n != nil && !n.execDead
}

// respawnExecutor re-creates a crashed executor through xSpawn.
func (rt *Runtime) respawnExecutor(p *sim.Proc, n *puNode) error {
	hostNode := rt.nodes[rt.hostID]
	x, err := hostNode.node.XSpawn(p, n.pu.ID, "molecule-executor", nil, nil)
	if err != nil {
		return err
	}
	n.execXPID = x
	n.execDead = false
	p.Tracef("executor on PU %d respawned as %v", n.pu.ID, x)
	return nil
}

// remoteCommand charges the control-plane cost of commanding an executor on
// PU id: free on the host, nIPC + executor handling elsewhere (Fig 10a/b:
// remote cfork adds ~1-3ms). A crashed executor is detected (command
// timeout) and respawned before the command retries. parent, when tracing,
// is the span the nIPC hop is recorded under. A command that cannot reach
// the PU — crashed endpoint, partitioned link — returns the transport
// error so the caller can fail the invocation instead of pretending the
// executor answered.
func (rt *Runtime) remoteCommand(p *sim.Proc, id hw.PUID, parent *obs.Span) error {
	if id == rt.hostID {
		return nil
	}
	n := rt.nodes[id]
	if n == nil {
		return nil
	}
	if n.execDead {
		if err := rt.respawnExecutor(p, n); err != nil {
			return err
		}
	}
	target := n.node.Host.ID // commands to virtual nodes land on their host
	if target == rt.hostID {
		return nil
	}
	sp := rt.obs.Span(parent, "nipc.command", int(target))
	_, err := rt.Machine.Transfer(p, rt.hostID, target, 256)
	if err == nil {
		p.Sleep(params.ExecutorCommandOverhead)
		_, err = rt.Machine.Transfer(p, target, rt.hostID, 128)
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.Finish()
		return fmt.Errorf("molecule: command to executor on PU %d: %w", id, err)
	}
	sp.Finish()
	if o := rt.obs; o != nil {
		o.Counter("molecule_nipc_commands_total", puLabel(id)).Inc()
	}
	return nil
}

// nextFIFO returns a fresh FIFO name, prefix-N.
func (rt *Runtime) nextFIFO(prefix string) string {
	rt.fifoSeq++
	var buf [32]byte
	b := append(append(buf[:0], prefix...), '-')
	return string(strconv.AppendInt(b, int64(rt.fifoSeq), 10))
}

// jitter stretches or shrinks d by a deterministic pseudo-random factor in
// [1-JitterPct, 1+JitterPct], derived from a per-runtime sequence number
// (splitmix64), modeling scheduling noise while keeping runs reproducible.
func (rt *Runtime) jitter(d time.Duration) time.Duration {
	if rt.Opts.JitterPct <= 0 || d <= 0 {
		return d
	}
	rt.jitterSeq++
	z := rt.jitterSeq + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z%2001)/1000 - 1 // [-1, 1]
	return time.Duration(float64(d) * (1 + rt.Opts.JitterPct*frac))
}

// scaledDispatch is the language-runtime dispatch work per request/DAG hop
// on a PU.
func scaledDispatch(pu *hw.PU) time.Duration {
	if pu.Kind == hw.DPU {
		return params.DAGDispatchDPU
	}
	return params.DAGDispatchCPU
}

// NodeStatus is the observable state of one PU in a Snapshot.
type NodeStatus struct {
	PU            hw.PUID
	Kind          hw.PUKind
	Name          string
	Capacity      int
	Live          int
	WarmPerFunc   map[string]int
	ExecutorAlive bool
	// Busy is accumulated handler execution time; Utilization divides it by
	// elapsed virtual time.
	Busy time.Duration
	// FPGAImage lists the functions cached in the device's current image.
	FPGAImage []string
}

// Snapshot returns a structured view of the runtime's state for
// observability endpoints and tests.
func (rt *Runtime) Snapshot() []NodeStatus {
	out := make([]NodeStatus, 0, len(rt.order))
	for _, n := range rt.orderedNodes() {
		st := NodeStatus{
			PU: n.pu.ID, Kind: n.pu.Kind, Name: n.pu.Name,
			Capacity: n.capacity, Live: n.liveCount,
			ExecutorAlive: n.pu.Kind.GeneralPurpose() && !n.execDead,
			Busy:          n.busy,
		}
		if len(n.warm) > 0 {
			st.WarmPerFunc = make(map[string]int, len(n.warm))
			for fn, pool := range n.warm {
				if len(pool) > 0 {
					st.WarmPerFunc[fn] = len(pool)
				}
			}
		}
		if n.runf != nil {
			st.FPGAImage = append([]string(nil), n.fpgaVector...)
		}
		out = append(out, st)
	}
	return out
}
