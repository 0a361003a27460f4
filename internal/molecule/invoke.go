package molecule

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// instance is one warm (or in-flight) container-based function instance.
type instance struct {
	fn        string
	node      *puNode
	sandboxID string
	sb        *sandbox.ContainerSandbox
	forked    bool
}

// InvokeOptions tune one invocation.
type InvokeOptions struct {
	// PU pins the invocation to a specific processing unit; -1 lets the
	// placement policy choose. The zero value pins to PU 0 (the host), so
	// construct options with DefaultInvokeOptions when unsure.
	PU hw.PUID
	// Arg parameterizes the function's cost model.
	Arg workloads.Arg
	// ForceCold skips the warm pool (cold-start measurements).
	ForceCold bool
	// RunBody executes the function's real Go body and stores its output in
	// the result.
	RunBody bool
	// Span, when observability is attached, parents the invocation's span
	// tree under an enclosing span (e.g. the HTTP gateway's request span).
	// Nil starts a new root.
	Span *obs.Span
}

// DefaultInvokeOptions lets placement choose the PU.
func DefaultInvokeOptions() InvokeOptions { return InvokeOptions{PU: -1} }

// Result reports one invocation's outcome and latency breakdown.
type Result struct {
	Fn      string
	PU      hw.PUID
	Kind    hw.PUKind
	Cold    bool
	Startup time.Duration // sandbox acquisition (0 on warm hits)
	Exec    time.Duration // handler execution including dispatch and COW faults
	Handler time.Duration // pure handler time on the chosen PU
	Total   time.Duration
	Output  any
}

// Invoke runs one request for funcName and returns its latency breakdown.
// Accelerator profiles win placement when available (the request was priced
// for them); otherwise the general-purpose placement policy picks a PU.
// With Options.Recovery enabled, transient failures are retried with
// backoff and failover; otherwise this is a single attempt on the exact
// pre-recovery code path.
func (rt *Runtime) Invoke(p *sim.Proc, funcName string, opts InvokeOptions) (Result, error) {
	d, err := rt.Deployment(funcName)
	if err != nil {
		return Result{}, err
	}
	if !rt.Opts.Recovery.Enabled() {
		return rt.dispatch(p, d, opts, true)
	}
	return rt.invokeWithRecovery(p, d, opts)
}

// dispatch routes one attempt to the PU-kind-specific invoke path. settle
// controls whether the attempt bills and records itself on success; the
// recovery layer passes false and settles exactly one winning attempt, so
// an attempt that completes after its timeout is never billed.
func (rt *Runtime) dispatch(p *sim.Proc, d *Deployment, opts InvokeOptions, settle bool) (Result, error) {
	if opts.PU >= 0 {
		if n := rt.nodes[opts.PU]; n != nil && n.accel != nil {
			return rt.invokeAccel(p, d, n.pu.Kind, opts, settle)
		}
		return rt.invokeGeneral(p, d, opts, settle)
	}
	if d.SupportsKind(hw.FPGA) {
		return rt.invokeAccel(p, d, hw.FPGA, opts, settle)
	}
	if d.SupportsKind(hw.GPU) {
		return rt.invokeAccel(p, d, hw.GPU, opts, settle)
	}
	return rt.invokeGeneral(p, d, opts, settle)
}

// settleResult bills the invocation and updates its metric series — the
// exactly-once accounting step of every successful invocation.
func (rt *Runtime) settleResult(d *Deployment, res Result) {
	pr, _ := d.ProfileFor(res.Kind)
	rt.bill.Record(d.Fn.Name, res.Kind, res.Total, pr.PricePerMs)
	if pu := rt.Machine.PU(res.PU); pu != nil {
		rt.recordInvocation(d.Fn.Name, pu, res)
	}
}

// handlerCrash wraps an injected handler fault and finishes the invoke
// span with it. Kept out of invokeGeneral so the formatting lives off the
// hot path: it only runs when a fault plan fires.
func (rt *Runtime) handlerCrash(root *obs.Span, d *Deployment, inst *instance, ferr error) error {
	err := fmt.Errorf("molecule: %s handler on PU %d: %w", d.Fn.Name, inst.node.pu.ID, ferr)
	root.SetAttr("error", err.Error())
	root.Finish()
	return err
}

// invokeGeneral serves the request on a CPU or DPU container instance.
//
//molecule:hotpath
func (rt *Runtime) invokeGeneral(p *sim.Proc, d *Deployment, opts InvokeOptions, settle bool) (Result, error) {
	start := p.Now()
	// Tracef checks the env flag itself, but its variadic arguments are boxed
	// at the call site; the explicit guards keep the detached warm path
	// allocation-free.
	tracing := rt.Env.Tracing()
	root := rt.obs.Span(opts.Span, "invoke", int(rt.hostID))
	root.SetAttr("fn", d.Fn.Name)
	if tracing {
		p.Tracef("invoke %s: request accepted", d.Fn.Name)
	}
	inst, cold, err := rt.acquire(p, d, opts.PU, opts.ForceCold, root)
	if err != nil {
		root.SetAttr("error", err.Error())
		root.Finish()
		return Result{}, err
	}
	if tracing {
		if cold {
			p.Tracef("invoke %s: cold start complete on PU %d (sandbox %s)", d.Fn.Name, inst.node.pu.ID, inst.sandboxID)
		} else {
			p.Tracef("invoke %s: warm hit on PU %d (sandbox %s)", d.Fn.Name, inst.node.pu.ID, inst.sandboxID)
		}
	}
	startupDone := p.Now()

	// Deterministic scheduling noise, when configured.
	if extra := rt.jitter(startupDone.Sub(start)) - startupDone.Sub(start); extra > 0 {
		p.Sleep(extra)
		startupDone = p.Now()
	}
	execStart := p.Now()
	if !cold {
		p.Sleep(params.WarmDispatchTime)
	}
	if rt.faults != nil {
		if ferr := rt.faults.HandlerFault(); ferr != nil {
			// The handler crashed: its instance is gone, not warm.
			rt.destroy(p, inst)
			return Result{}, rt.handlerCrash(root, d, inst, ferr)
		}
	}
	hs := rt.obs.Span(root, "handler", int(inst.node.pu.ID))
	if inst.forked && inst.sb.Inst.COWPending {
		hs.SetAttr("cow", "1")
		if o := rt.obs; o != nil {
			o.Counter("sandbox_cow_faults_total", puLabel(inst.node.pu.ID)).Inc()
		}
	}
	inst.sb.Inst.Invoke(p, rt.jitter(d.Fn.CPUCost(opts.Arg)), inst.forked)
	hs.Finish()
	res := Result{
		Fn: d.Fn.Name, PU: inst.node.pu.ID, Kind: inst.node.pu.Kind, Cold: cold,
		Startup: startupDone.Sub(start),
		Exec:    p.Now().Sub(execStart),
		Handler: inst.node.pu.ComputeTime(d.Fn.CPUCost(opts.Arg)),
		Total:   p.Now().Sub(start),
	}
	if cold {
		root.SetAttr("cold", "1")
	}
	if root != nil {
		root.SetAttr("pu", strconv.Itoa(int(inst.node.pu.ID)))
	}
	root.Finish() // root span duration == res.Total by construction
	if err := runBody(d, opts, &res); err != nil {
		rt.release(p, inst)
		return Result{}, err
	}
	inst.node.busy += res.Exec
	rt.release(p, inst)
	if tracing {
		p.Tracef("invoke %s: done in %v (exec %v)", d.Fn.Name, res.Total, res.Exec)
	}
	if settle {
		rt.settleResult(d, res)
	}
	return res, nil
}

// recordInvocation updates the per-invocation metric series (no-op with
// observability detached).
func (rt *Runtime) recordInvocation(fn string, pu *hw.PU, res Result) {
	o := rt.obs
	if o == nil {
		return
	}
	pl := puLabel(pu.ID)
	o.Counter("molecule_invocations_total", obs.L("fn", fn), pl, obs.L("kind", pu.Kind.String())).Inc()
	o.Histogram("molecule_invoke_latency_seconds", pl).Observe(res.Total)
	o.RecordSLO(fn, res.Total)
}

// acquire returns a ready instance: a warm-pool hit, or a cold start via
// cfork (or plain boot when cfork is disabled). Each cold start refreshes
// the function's recreation cost in the greedy-dual keep-alive policy, so
// expensive-to-recreate functions win cache space.
func (rt *Runtime) acquire(p *sim.Proc, d *Deployment, pin hw.PUID, forceCold bool, parent *obs.Span) (*instance, bool, error) {
	sp := rt.obs.Span(parent, "sandbox.acquire", -1)
	if !forceCold {
		if inst := rt.popWarm(d.Fn.Name, pin); inst != nil {
			sp.SetAttr("path", "warm")
			sp.SetPU(int(inst.node.pu.ID))
			sp.Finish()
			if o := rt.obs; o != nil {
				o.Counter("molecule_warm_hits_total", puLabel(inst.node.pu.ID), obs.L("fn", d.Fn.Name)).Inc()
			}
			return inst, false, nil
		}
	}
	start := p.Now()
	inst, err := rt.coldStart(p, d, pin, sp)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.Finish()
		return nil, false, err
	}
	rt.cache.setCost(d.Fn.Name, p.Now().Sub(start).Seconds()*1000)
	sp.SetAttr("path", "cold")
	sp.SetPU(int(inst.node.pu.ID))
	sp.Finish()
	if o := rt.obs; o != nil {
		o.Counter("molecule_cold_starts_total", puLabel(inst.node.pu.ID), obs.L("fn", d.Fn.Name)).Inc()
		o.Histogram("molecule_startup_latency_seconds", puLabel(inst.node.pu.ID)).Observe(p.Now().Sub(start))
	}
	return inst, true, nil
}

// popWarm takes a warm instance for fn, honoring a PU pin. Instances whose
// sandbox was killed or deleted out-of-band are discarded rather than
// served.
//
// The fn-indexed warm counter makes the two hot cases O(1): a global miss
// (every acquire in a density run, where no instance is ever warm) returns
// without touching a single node, and a pinned lookup goes straight to its
// node. The unpinned hit path walks rt.order directly — same deterministic
// lowest-PU-first preference as before, without materializing a node slice
// per call.
//
//molecule:hotpath
func (rt *Runtime) popWarm(fn string, pin hw.PUID) *instance {
	if rt.warmTotal[fn] == 0 {
		return nil
	}
	if pin >= 0 {
		return rt.popWarmOn(rt.nodes[pin], fn)
	}
	for _, id := range rt.order {
		if inst := rt.popWarmOn(rt.nodes[id], fn); inst != nil {
			return inst
		}
	}
	return nil
}

// popWarmOn takes a warm instance for fn from one node, discarding dead
// instances along the way.
func (rt *Runtime) popWarmOn(n *puNode, fn string) *instance {
	if n == nil || rt.puDown(n.pu.ID) {
		return nil // stranded warm instances are reaped, never served
	}
	for pool := n.warm[fn]; len(pool) > 0; pool = n.warm[fn] {
		inst := pool[len(pool)-1]
		n.warm[fn] = pool[:len(pool)-1]
		rt.warmTotal[fn]--
		if inst.sb == nil || inst.sb.State != sandbox.StateRunning {
			n.liveCount-- // dead instance leaves the machine
			continue
		}
		rt.cache.hit(fn)
		return inst
	}
	return nil
}

// coldStart creates and starts a new container sandbox for the function.
// With cfork, Molecule forks from a dedicated template (code and
// dependencies preloaded, §4.2), so the per-function dependency import is
// off the critical path; plain boots pay it.
func (rt *Runtime) coldStart(p *sim.Proc, d *Deployment, pin hw.PUID, parent *obs.Span) (*instance, error) {
	ps := rt.obs.Span(parent, "placement", -1)
	n, err := rt.placeGeneral(d, pin)
	if err != nil && errors.Is(err, ErrNoCapacity) && rt.evictForPlacement(p, d, pin) {
		// Density pressure: every slot was pinned, but an idle warm
		// instance was reclaimed per keep-alive priority — retry. This
		// path only runs where placement just failed, so runs that never
		// hit capacity are byte-identical.
		n, err = rt.placeGeneral(d, pin)
	}
	if err != nil {
		ps.SetAttr("error", err.Error())
		ps.Finish()
		return nil, err
	}
	ps.SetAttr("pu", fmt.Sprintf("%d", n.pu.ID))
	ps.Finish()
	if err := rt.remoteCommand(p, n.pu.ID, parent); err != nil {
		return nil, err
	}
	if !rt.Opts.UseCfork && rt.Opts.Startup == StartupSnapshot {
		return rt.restoreFromSnapshot(p, d, n)
	}
	zygote := rt.zygoteOn()
	if rt.Opts.UseCfork {
		// Template boot is a one-time cost per (PU, language), off the
		// per-request critical path in steady state; it is charged here on
		// first use.
		if zygote {
			if _, err := n.cr.EnsureForest(p, d.Fn.Lang); err != nil {
				return nil, err
			}
		} else if _, err := n.cr.EnsureTemplate(p, d.Fn.Lang); err != nil {
			return nil, err
		}
	}
	n.sandboxSeq++
	id := fmt.Sprintf("c-%s-%d-%d", d.Fn.Name, n.pu.ID, n.sandboxSeq)
	p.Tracef("coldstart %s: creating sandbox %s on PU %d", d.Fn.Name, id, n.pu.ID)
	cs := rt.obs.Span(parent, "sandbox.create", int(n.pu.ID))
	if err := sandbox.CreateOne(p, n.cr, sandbox.Spec{ID: id, FuncID: d.Fn.Name, Lang: d.Fn.Lang, Pkgs: d.Pkgs}); err != nil {
		cs.Finish()
		return nil, err
	}
	cs.Finish()
	// Under the zygote forest, the start is a fork from the resolved
	// ancestor template; attribution splits it from the residual imports
	// paid right after, so the breakdown shows where a fitted tree saves.
	startSpan := "sandbox.start"
	if zygote {
		startSpan = "coldstart.ancestor"
	}
	ss := rt.obs.Span(parent, startSpan, int(n.pu.ID))
	if err := sandbox.StartOne(p, n.cr, id); err != nil {
		ss.Finish()
		// Don't leak the created-but-never-started sandbox: a failed start
		// (e.g. an injected fork fault) must leave no instance behind.
		sandbox.DeleteOne(p, n.cr, id)
		return nil, err
	}
	ss.Finish()
	p.Tracef("coldstart %s: sandbox %s running", d.Fn.Name, id)
	sb := n.cr.Sandbox(id)
	if zygote {
		// Pay the imports the ancestor template did not pre-run, plus the
		// function's private tail. A root-only forest (flat cfork) pays
		// the whole manifest here — exactly DepImport by calibration.
		rs := rt.obs.Span(parent, "coldstart.residual", int(n.pu.ID))
		sb.Inst.ImportResidual(p, sb.Residual, d.PkgTail)
		rs.Finish()
	}
	// Dedicated templates preload each hot function's dependencies (§4.2),
	// keeping the import off the critical path; plain boots — and cforks
	// from generic templates — pay it.
	if !rt.Opts.UseCfork || (rt.Opts.GenericTemplates && !zygote) {
		p.Sleep(n.pu.StartupTime(d.Fn.DepImport))
	}
	n.liveCount++
	// Replenish the container pool in the background so the FuncContainer
	// optimization holds for the next cold start.
	if rt.Opts.PrewarmContainers > 0 && n.cr.PoolSize() < rt.Opts.PrewarmContainers {
		cr := n.cr
		rt.Env.Spawn("prewarm", func(bg *sim.Proc) { cr.Prewarm(bg, 1) })
	}
	return &instance{fn: d.Fn.Name, node: n, sandboxID: id, sb: sb, forked: sb.Forked}, nil
}

// restoreFromSnapshot serves a cold start by restoring a per-function
// snapshot (StartupSnapshot mode). The first cold start of each function
// pays a full plain boot plus the checkpoint; later cold starts restore in
// SnapshotRestoreTime.
func (rt *Runtime) restoreFromSnapshot(p *sim.Proc, d *Deployment, n *puNode) (*instance, error) {
	snap, ok := n.snapshots[d.Fn.Name]
	if !ok {
		spec, err := lang.SpecFor(d.Fn.Lang)
		if err != nil {
			return nil, err
		}
		donor := lang.BaselineColdStart(p, n.os, spec, d.Fn.Name, "snap-donor-"+d.Fn.Name)
		p.Sleep(n.pu.StartupTime(d.Fn.DepImport))
		snap, err = lang.TakeSnapshot(p, donor)
		if err != nil {
			return nil, err
		}
		donor.Exit()
		n.snapshots[d.Fn.Name] = snap
	}
	inst := snap.Restore(p, n.os)
	n.sandboxSeq++
	id := fmt.Sprintf("s-%s-%d-%d", d.Fn.Name, n.pu.ID, n.sandboxSeq)
	// Register the restored instance under a sandbox record so the rest of
	// the lifecycle (warm pool, kill, delete) is uniform.
	sb := &sandbox.ContainerSandbox{
		Spec:  sandbox.Spec{ID: id, FuncID: d.Fn.Name, Lang: d.Fn.Lang},
		State: sandbox.StateRunning,
		Inst:  inst,
	}
	n.cr.Adopt(id, sb)
	n.liveCount++
	return &instance{fn: d.Fn.Name, node: n, sandboxID: id, sb: sb, forked: false}, nil
}

// release returns an instance to the warm pool, evicting per keep-alive
// policy.
func (rt *Runtime) release(p *sim.Proc, inst *instance) {
	n := inst.node
	n.warm[inst.fn] = append(n.warm[inst.fn], inst)
	rt.warmTotal[inst.fn]++
	evict := rt.cache.admit(inst.fn, n)
	for _, victim := range evict {
		// admit already removed the victim from its pool; settle the counter
		// here (destroy only decrements for instances it finds pooled).
		rt.warmTotal[victim.fn]--
		if o := rt.obs; o != nil {
			o.Counter("molecule_keepalive_evictions_total", puLabel(victim.node.pu.ID), obs.L("fn", victim.fn)).Inc()
		}
		rt.destroy(p, victim)
	}
}

// evictForPlacement frees one instance slot for a cold start of d that
// placement just rejected for capacity: the first supporting, live,
// capacity-full PU (same kind-then-PU-ID order as placeGeneral) with a
// non-empty warm pool gives up its keep-alive victim. Reports whether a
// slot was freed. Density-pressure reclaim — idle warm instances yield to
// demand instead of pinning the PU's instance cap forever.
func (rt *Runtime) evictForPlacement(p *sim.Proc, d *Deployment, pin hw.PUID) bool {
	try := func(n *puNode) bool {
		if n == nil || n.cr == nil || rt.puDown(n.pu.ID) || n.liveCount < n.capacity {
			return false
		}
		victim := rt.cache.victim(n)
		if victim == nil {
			return false
		}
		if o := rt.obs; o != nil {
			o.Counter("molecule_density_evictions_total", puLabel(n.pu.ID), obs.L("fn", victim.fn)).Inc()
		}
		rt.destroy(p, victim)
		return true
	}
	if pin >= 0 {
		n := rt.nodes[pin]
		if n == nil || !d.SupportsKind(n.pu.Kind) {
			return false
		}
		return try(n)
	}
	for _, kind := range generalKinds {
		if !d.SupportsKind(kind) {
			continue
		}
		for _, pu := range rt.Machine.PUsOfKind(kind) {
			if try(rt.nodes[pu.ID]) {
				return true
			}
		}
	}
	return false
}

// destroy deletes a warm instance's sandbox.
func (rt *Runtime) destroy(p *sim.Proc, inst *instance) {
	n := inst.node
	pool := n.warm[inst.fn]
	for i, cand := range pool {
		if cand == inst {
			n.warm[inst.fn] = append(pool[:i], pool[i+1:]...)
			rt.warmTotal[inst.fn]--
			break
		}
	}
	sandbox.DeleteOne(p, n.cr, inst.sandboxID)
	n.liveCount--
}

// AcquireHeld cold-starts (or reuses) an instance and keeps it allocated
// until ReleaseHeld — the building block for the Fig 2a density experiment
// and for pre-booted chain instances.
func (rt *Runtime) AcquireHeld(p *sim.Proc, funcName string, pin hw.PUID) (*instance, error) {
	d, err := rt.Deployment(funcName)
	if err != nil {
		return nil, err
	}
	inst, _, err := rt.acquire(p, d, pin, false, nil)
	return inst, err
}

// ReleaseHeld returns a held instance to the warm pool.
func (rt *Runtime) ReleaseHeld(p *sim.Proc, inst *instance) { rt.release(p, inst) }

// acquireAll acquires one instance per function for a chain or DAG, warm
// where possible: names[i] pinned to pins[i] (-1 = the host), visiting
// indices in order (nil = index order). It is all or nothing. On any error
// it releases what it already took and returns no instances; otherwise the
// caller owns every instance and hands them back with releaseAll.
func (rt *Runtime) acquireAll(p *sim.Proc, names []string, pins []hw.PUID, order []int) ([]*instance, []*Deployment, int, error) {
	insts := make([]*instance, len(names))
	deps := make([]*Deployment, len(names))
	ok := false
	defer func() {
		if !ok {
			rt.releaseAll(p, insts)
		}
	}()
	cold := 0
	for k := range names {
		i := k
		if order != nil {
			i = order[k]
		}
		d, err := rt.Deployment(names[i])
		if err != nil {
			return nil, nil, 0, err
		}
		deps[i] = d
		pin := pins[i]
		if pin < 0 {
			pin = rt.hostID
		}
		inst, c, err := rt.acquire(p, d, pin, false, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		if c {
			cold++
		}
		insts[i] = inst
	}
	ok = true
	return insts, deps, cold, nil
}

// releaseAll returns acquireAll's instances to their warm pools in index
// order, skipping slots an aborted acquireAll never filled.
func (rt *Runtime) releaseAll(p *sim.Proc, insts []*instance) {
	for _, inst := range insts {
		if inst != nil {
			rt.release(p, inst)
		}
	}
}

// invokeAccel serves the request on the function's kind (FPGA or GPU)
// sandbox, installing the function first on a miss.
func (rt *Runtime) invokeAccel(p *sim.Proc, d *Deployment, kind hw.PUKind, opts InvokeOptions, settle bool) (Result, error) {
	start := p.Now()
	root := rt.obs.Span(opts.Span, "invoke", int(rt.hostID))
	root.SetAttr("fn", d.Fn.Name)
	n, id, err := rt.ensureAccel(p, kind, d.Fn.Name, root)
	if err != nil {
		root.Finish()
		return Result{}, err
	}
	startupDone := p.Now()
	argB, resB := d.Fn.Sizes(opts.Arg)
	execStart := p.Now()
	hs := rt.obs.Span(root, "handler", int(n.pu.ID))
	if kind == hw.FPGA {
		err = n.runf.Invoke(p, id, argB, resB, d.Fn.FabricCost(opts.Arg), sandbox.InvokeOptions{})
	} else {
		err = n.rung.Invoke(p, id, argB, resB, d.Fn.GPUKernel)
	}
	hs.Finish()
	if err != nil {
		root.Finish()
		return Result{}, err
	}
	res := Result{
		Fn: d.Fn.Name, PU: n.pu.ID, Kind: kind,
		Cold:    startupDone != start,
		Startup: startupDone.Sub(start),
		Exec:    p.Now().Sub(execStart),
		Handler: p.Now().Sub(execStart),
		Total:   p.Now().Sub(start),
	}
	root.SetAttr("pu", fmt.Sprintf("%d", n.pu.ID))
	root.Finish() // root span duration == res.Total by construction
	n.busy += res.Exec
	if err := runBody(d, opts, &res); err != nil {
		return Result{}, err
	}
	if settle {
		rt.settleResult(d, res)
	}
	return res, nil
}

// runBody executes the function's real Go body into res.Output when opts
// asks for it; every PU kind's invoke path calls it after the handler.
func runBody(d *Deployment, opts InvokeOptions, res *Result) error {
	if !opts.RunBody || d.Fn.Body == nil {
		return nil
	}
	out, err := d.Fn.Body(opts.Arg)
	res.Output = out
	return err
}
