package molecule

import (
	"errors"
	"fmt"
	"slices"
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
	rec       *funcRec
	node      *puNode
	sandboxID string
	sb        *sandbox.ContainerSandbox
}

// running reports whether the instance's sandbox can serve a request.
func (inst *instance) running() bool { return inst.sb != nil && inst.sb.State == sandbox.StateRunning }

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
	if kind, ok := rt.accelKind(d, opts); ok {
		return rt.invokeAccel(p, d, kind, opts, settle)
	}
	return rt.invokeGeneral(p, d, opts, settle)
}

// accelKind reports the accelerator kind an invoke of d runs on, if any:
// that of the PU opts pins, or else FPGA, then GPU, when d has a profile
// for it.
func (rt *Runtime) accelKind(d *Deployment, opts InvokeOptions) (hw.PUKind, bool) {
	if opts.PU >= 0 {
		if n := rt.nodes[opts.PU]; n != nil && n.accel != nil {
			return n.pu.Kind, true
		}
		return 0, false
	}
	for _, kind := range [...]hw.PUKind{hw.FPGA, hw.GPU} {
		if d.SupportsKind(kind) {
			return kind, true
		}
	}
	return 0, false
}

// settleResult bills the invocation and updates its metric series — the
// exactly-once accounting step of every successful invocation.
func (rt *Runtime) settleResult(d *Deployment, res *Result) {
	pr, _ := d.ProfileFor(res.Kind)
	rt.charge(d.rec, res.Kind, res.Total, pr.PricePerMs)
	if pu := rt.Machine.PU(res.PU); pu != nil {
		rt.recordInvocation(d.Fn.Name, pu, res)
	}
}

// invokeGeneral serves the request on a CPU or DPU container instance: an
// Invocation driven on p's own coroutine.
func (rt *Runtime) invokeGeneral(p *sim.Proc, d *Deployment, opts InvokeOptions, settle bool) (Result, error) {
	var inv Invocation
	inv.begin(rt, p, d, opts)
	inv.settle = settle
	inv.Finish(p)
	return inv.Result()
}

// Invocation is one general-purpose invoke split at its only blocking
// phase, the cold build, so that a warm hit can run without a coroutine.
// Begin runs the invoke up to its instance without blocking: the
// deployment lookup, the spans, and the warm-pool pop, or on a miss the
// cold start's placement with its eviction retry. Step, a sim.Step, runs
// the rest: the scheduling noise, the dispatch, the fault check, the
// handler, the result, the release and the settle. A cold start that Begin
// placed (NeedsBuild) is built on the invoking process's coroutine first,
// which Finish does before it drives Step there. Invoke is an Invocation
// driven by Finish, so the stepped and the blocking invoke share one cost
// model; Result reads the outcome. An Invocation serves one invoke at a
// time; Begin arms it.
type Invocation struct {
	rt      *Runtime
	d       *Deployment
	opts    InvokeOptions
	settle  bool
	tracing bool
	cold    bool
	phase   invokePhase
	acq     acquisition
	inst    *instance
	root    *obs.Span
	hs      *obs.Span // the handler's span, open while it runs
	start   sim.Time
	// startupDone is when the instance was ready, after the scheduling
	// noise; the dispatch, and the result's Exec, start there.
	startupDone sim.Time
	res         Result
	err         error
}

// invokePhase is how far an Invocation has got.
type invokePhase uint8

const (
	invokeBuild    invokePhase = iota // a placed cold start waits for its build
	invokeNoise                       // the instance is ready: scheduling noise
	invokeDispatch                    // the warm dispatch
	invokeHandler                     // the fault check, then the handler
	invokeSettle                      // the result, the release and the settle
	invokeDone                        // over: Result has the outcome
)

// Begin arms inv for an invoke of fn on rt by p, the running process, and
// runs it up to its instance. It reports false, having done nothing, when
// the invoke does not take this path: an accelerator invoke, or a runtime
// that retries (Options.Recovery), which only Invoke serves. Otherwise the
// invoke is over (a lookup or placement error, which Result returns),
// needs its cold build (NeedsBuild), or is ready for Step.
//
//molecule:hotpath
func (inv *Invocation) Begin(rt *Runtime, p *sim.Proc, fn string, opts InvokeOptions) bool {
	if rt.Opts.Recovery.Enabled() {
		return false
	}
	d := rt.deployment(fn)
	if d == nil {
		inv.phase, inv.err = invokeDone, errNotDeployed(fn)
		return true
	}
	if _, ok := rt.accelKind(d, opts); ok {
		return false
	}
	inv.begin(rt, p, d, opts)
	inv.settle = true
	return true
}

// begin arms inv for an invoke of d and runs it up to its instance; see
// Begin. The caller sets whether the invoke settles itself.
//
//molecule:hotpath
func (inv *Invocation) begin(rt *Runtime, p *sim.Proc, d *Deployment, opts InvokeOptions) {
	// The fields are set one by one, not from a composite literal, which
	// would zero and copy the whole struct on every invoke; the rest are
	// written before they are read. Tracef checks the env flag itself, but
	// its variadic arguments are boxed at the call site; the tracing
	// guards keep the detached warm path allocation-free.
	inv.rt, inv.d, inv.opts, inv.tracing = rt, d, opts, rt.Env.Tracing()
	inv.cold, inv.phase, inv.start, inv.err = false, invokeBuild, p.Now(), nil
	inv.root = rt.obs.Span(opts.Span, "invoke", int(rt.hostID))
	inv.root.SetAttr("fn", d.Fn.Name)
	if inv.tracing {
		p.Tracef("invoke %s: request accepted", d.Fn.Name)
	}
	inst, err := inv.acq.begin(rt, p, d, opts.PU, opts.ForceCold, inv.root)
	switch {
	case err != nil:
		inv.fail(err)
	case inst != nil:
		inv.inst, inv.phase = inst, invokeNoise
	}
}

// NeedsBuild reports that Begin placed a cold start, which Finish builds on
// the invoking process's coroutine.
func (inv *Invocation) NeedsBuild() bool { return inv.phase == invokeBuild }

// Finish completes the invoke Begin armed on p's own coroutine: the cold
// build, if Begin placed one, then Step, parking whenever it reports false.
//
//molecule:hotpath
func (inv *Invocation) Finish(p *sim.Proc) {
	if inv.phase == invokeBuild {
		inst, err := inv.acq.build(inv.rt, p)
		if err != nil {
			inv.fail(err)
		} else {
			inv.inst, inv.cold, inv.phase = inst, true, invokeNoise
		}
	}
	for val := any(nil); !inv.Step(p, val); {
		val = p.Park()
	}
}

// Result returns the invoke's outcome, what Invoke would, once Step has
// reported it over.
func (inv *Invocation) Result() (Result, error) {
	if inv.err != nil {
		return Result{}, inv.err
	}
	return inv.res, nil
}

// fail ends the invoke with err, which its root span records.
func (inv *Invocation) fail(err error) {
	inv.root.SetAttr("error", err.Error())
	inv.root.Finish()
	inv.err, inv.phase = err, invokeDone
}

// Step runs the invoke on from its ready instance; see sim.Step. Every wait
// is a SleepStep where the blocking invoke slept.
//
//molecule:hotpath
func (inv *Invocation) Step(p *sim.Proc, val any) bool {
	rt, d, inst := inv.rt, inv.d, inv.inst
	switch inv.phase {
	case invokeNoise:
		if inv.tracing {
			if inv.cold {
				p.Tracef("invoke %s: cold start complete on PU %d (sandbox %s)", d.Fn.Name, inst.node.pu.ID, inst.sandboxID)
			} else {
				p.Tracef("invoke %s: warm hit on PU %d (sandbox %s)", d.Fn.Name, inst.node.pu.ID, inst.sandboxID)
			}
		}
		// Deterministic scheduling noise, when configured.
		inv.phase = invokeDispatch
		startup := p.Now().Sub(inv.start)
		if extra := sim.Jitter(startup, rt.Opts.JitterPct, &rt.jitterSeq) - startup; extra > 0 && !p.SleepStep(extra) {
			return false
		}
		fallthrough
	case invokeDispatch:
		inv.startupDone = p.Now()
		inv.phase = invokeHandler
		if !inv.cold && !p.SleepStep(params.WarmDispatchTime) {
			return false
		}
		fallthrough
	case invokeHandler:
		if rt.faults != nil {
			if ferr := rt.faults.HandlerFault(); ferr != nil {
				// The handler crashed: its instance is gone, not warm.
				rt.destroy(p, inst)
				inv.fail(handlerCrash(d, inst, ferr))
				return true
			}
		}
		inv.hs = rt.obs.Span(inv.root, "handler", int(inst.node.pu.ID))
		if inst.sb.Forked && inst.sb.Inst.COWPending {
			inv.hs.SetAttr("cow", "1")
			if o := rt.obs; o != nil {
				o.Counter("sandbox_cow_faults_total", puLabel(inst.node.pu.ID)).Inc()
			}
		}
		inv.phase = invokeSettle
		if !p.SleepStep(inst.sb.Inst.StartHandler(sim.Jitter(d.Fn.CPUCost(inv.opts.Arg), rt.Opts.JitterPct, &rt.jitterSeq), inst.sb.Forked)) {
			return false
		}
		fallthrough
	case invokeSettle:
		inv.complete(p)
	}
	return true
}

// complete ends an invoke whose handler has run: the result, the release
// and, when the invoke settles itself, the settle.
//
//molecule:hotpath
func (inv *Invocation) complete(p *sim.Proc) {
	rt, d, inst := inv.rt, inv.d, inv.inst
	inv.hs.Finish()
	inv.phase = invokeDone
	now := p.Now()
	// The result is built in place: Result returns it only if err is nil.
	res := &inv.res
	*res = Result{
		Fn: d.Fn.Name, PU: inst.node.pu.ID, Kind: inst.node.pu.Kind, Cold: inv.cold,
		Startup: inv.startupDone.Sub(inv.start),
		Exec:    now.Sub(inv.startupDone),
		Handler: inst.node.pu.ComputeTime(d.Fn.CPUCost(inv.opts.Arg)),
		Total:   now.Sub(inv.start),
	}
	root := inv.root
	if inv.cold {
		root.SetAttr("cold", "1")
	}
	if root != nil {
		root.SetAttr("pu", strconv.Itoa(int(inst.node.pu.ID)))
	}
	root.Finish() // root span duration == res.Total by construction
	if err := runBody(d, inv.opts, res); err != nil {
		rt.release(p, inst)
		inv.err = err
		return
	}
	inst.node.busy += res.Exec
	rt.release(p, inst)
	if inv.tracing {
		p.Tracef("invoke %s: done in %v (exec %v)", d.Fn.Name, res.Total, res.Exec)
	}
	if inv.settle {
		rt.settleResult(d, res)
	}
}

// handlerCrash wraps an injected handler fault. Kept out of Step so the
// formatting lives off the hot path: it only runs when a fault plan fires.
func handlerCrash(d *Deployment, inst *instance, ferr error) error {
	return fmt.Errorf("molecule: %s handler on PU %d: %w", d.Fn.Name, inst.node.pu.ID, ferr)
}

// recordInvocation updates the per-invocation metric series (no-op with
// observability detached).
func (rt *Runtime) recordInvocation(fn string, pu *hw.PU, res *Result) {
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
	var a acquisition
	inst, err := a.begin(rt, p, d, pin, forceCold, parent)
	if inst != nil || err != nil {
		return inst, false, err
	}
	inst, err = a.build(rt, p)
	return inst, err == nil, err
}

// acquisition is an acquire split at the cold build, its only blocking
// phase: begin takes a warm instance, or places a cold start, without
// blocking, and build completes the placed cold start on the acquiring
// process's coroutine.
type acquisition struct {
	d     *Deployment
	sp    *obs.Span // sandbox.acquire, the cold start's spans' parent
	start sim.Time  // when the cold start began
	node  *puNode   // the PU the cold start was placed on
}

// begin returns a warm instance of d's function, or nil with a cold start
// placed for build, or the placement's error.
//
//molecule:hotpath
func (a *acquisition) begin(rt *Runtime, p *sim.Proc, d *Deployment, pin hw.PUID, forceCold bool, parent *obs.Span) (*instance, error) {
	sp := rt.obs.Span(parent, "sandbox.acquire", -1)
	*a = acquisition{d: d, sp: sp}
	if !forceCold {
		if inst := rt.popWarm(d.rec, pin); inst != nil {
			sp.SetAttr("path", "warm")
			sp.SetPU(int(inst.node.pu.ID))
			sp.Finish()
			if o := rt.obs; o != nil {
				o.Counter("molecule_warm_hits_total", puLabel(inst.node.pu.ID), obs.L("fn", d.Fn.Name)).Inc()
			}
			return inst, nil
		}
	}
	a.start = p.Now()
	n, err := rt.placeCold(p, d, pin, sp)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.Finish()
		return nil, err
	}
	a.node = n
	return nil, nil
}

// build runs the cold start begin placed and returns its instance.
func (a *acquisition) build(rt *Runtime, p *sim.Proc) (*instance, error) {
	d, sp := a.d, a.sp
	inst, err := rt.coldStart(p, d, a.node, sp)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.Finish()
		return nil, err
	}
	rt.cache.setCost(d.rec.stat, p.Now().Sub(a.start).Seconds()*1000)
	sp.SetAttr("path", "cold")
	sp.SetPU(int(inst.node.pu.ID))
	sp.Finish()
	if o := rt.obs; o != nil {
		o.Counter("molecule_cold_starts_total", puLabel(inst.node.pu.ID), obs.L("fn", d.Fn.Name)).Inc()
		o.Histogram("molecule_startup_latency_seconds", puLabel(inst.node.pu.ID)).Observe(p.Now().Sub(a.start))
	}
	return inst, nil
}

// popWarm takes a warm instance of r's function, honoring a PU pin.
// Instances whose sandbox was killed or deleted out-of-band are discarded
// rather than served.
//
// The record's warm counter makes the two hot cases O(1): a global miss
// (every acquire in a density run, where no instance is ever warm) returns
// without touching a single node, and a pinned lookup goes straight to its
// node. The unpinned hit path walks rt.order directly — same deterministic
// lowest-PU-first preference as before, without materializing a node slice
// per call.
//
//molecule:hotpath
func (rt *Runtime) popWarm(r *funcRec, pin hw.PUID) *instance {
	if r.warm == 0 {
		return nil
	}
	if pin >= 0 {
		return rt.popWarmOn(rt.nodes[pin], r)
	}
	for _, id := range rt.order {
		if inst := rt.popWarmOn(rt.nodes[id], r); inst != nil {
			return inst
		}
	}
	return nil
}

// popWarmOn takes a warm instance of r's function from one node,
// discarding dead instances along the way.
func (rt *Runtime) popWarmOn(n *puNode, r *funcRec) *instance {
	if n == nil || rt.puDown(n.pu.ID) {
		return nil // stranded warm instances are reaped, never served
	}
	wp := n.poolOf(r)
	if wp == nil {
		return nil
	}
	for len(wp.insts) > 0 {
		inst := wp.insts[len(wp.insts)-1]
		n.unpool(wp, len(wp.insts)-1)
		r.warm--
		if !inst.running() {
			n.liveCount-- // dead instance leaves the machine
			continue
		}
		rt.cache.touch(r.stat)
		return inst
	}
	return nil
}

// placeCold places a cold start of d, pinned to pin: placement, and on a
// capacity miss one keep-alive eviction and a second try. It never blocks.
//
//molecule:hotpath
func (rt *Runtime) placeCold(p *sim.Proc, d *Deployment, pin hw.PUID, parent *obs.Span) (*puNode, error) {
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
	if rt.obs != nil {
		ps.SetAttr("pu", strconv.Itoa(int(n.pu.ID)))
	}
	ps.Finish()
	return n, nil
}

// coldStart makes a new instance of the function on n, where placeCold
// placed it, by the runtime's startup mode. A cfork from a dedicated
// template (§4.2) has the dependencies preloaded; generic-template cforks
// and plain boots import them.
//
//molecule:hotpath
func (rt *Runtime) coldStart(p *sim.Proc, d *Deployment, n *puNode, parent *obs.Span) (*instance, error) {
	if err := rt.remoteCommand(p, n.pu.ID, parent); err != nil {
		return nil, err
	}
	var err error
	// Template boot is a one-time cost per (PU, language), off the
	// per-request critical path in steady state; it is charged here on
	// first use.
	zygote := n.cr.Mode == sandbox.StartZygote
	switch {
	case rt.Opts.Startup == StartupSnapshot:
		return rt.restoreFromSnapshot(p, d, n)
	case zygote:
		_, err = n.cr.EnsureForest(p, d.Fn.Lang)
	case n.cr.Mode == sandbox.StartCfork:
		_, err = n.cr.EnsureTemplate(p, d.Fn.Lang)
	}
	if err != nil {
		return nil, err
	}
	id := n.nextContainerID("c-", d.Fn.Name)
	tracing := rt.Env.Tracing()
	if tracing {
		p.Tracef("coldstart %s: creating sandbox %s on PU %d", d.Fn.Name, id, n.pu.ID)
	}
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
	if tracing {
		p.Tracef("coldstart %s: sandbox %s running", d.Fn.Name, id)
	}
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
	if rt.Opts.Startup != StartupCfork {
		p.Sleep(n.pu.StartupTime(d.Fn.DepImport))
	}
	n.liveCount++
	// Replenish the container pool in the background so the FuncContainer
	// optimization holds for the next cold start.
	if rt.Opts.PrewarmContainers > 0 && n.cr.PoolSize() < rt.Opts.PrewarmContainers {
		n.cr.Refill()
	}
	return &instance{rec: d.rec, node: n, sandboxID: id, sb: sb}, nil
}

// nextContainerID numbers the node's next sandbox and returns its ID,
// <prefix><fn>-<pu>-<seq>, built in the node's reused buffer: one
// allocation.
func (n *puNode) nextContainerID(prefix, fn string) string {
	n.sandboxSeq++
	n.idBuf = append(n.idBuf[:0], prefix...)
	n.idBuf = append(n.idBuf, fn...)
	n.idBuf = append(n.idBuf, '-')
	n.idBuf = strconv.AppendInt(n.idBuf, int64(n.pu.ID), 10)
	n.idBuf = append(n.idBuf, '-')
	n.idBuf = strconv.AppendInt(n.idBuf, int64(n.sandboxSeq), 10)
	return string(n.idBuf)
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
	id := n.nextContainerID("s-", d.Fn.Name)
	// Register the restored instance under a sandbox record so the rest of
	// the lifecycle (warm pool, kill, delete) is uniform.
	sb := &sandbox.ContainerSandbox{
		Spec:  sandbox.Spec{ID: id, FuncID: d.Fn.Name, Lang: d.Fn.Lang},
		State: sandbox.StateRunning,
		Inst:  inst,
	}
	n.cr.Adopt(id, sb)
	n.liveCount++
	return &instance{rec: d.rec, node: n, sandboxID: id, sb: sb}, nil
}

// release returns an instance to the warm pool, evicting per keep-alive
// policy. An instance whose function was undeployed while it ran is
// destroyed instead: pooled, it would pin a capacity slot and be served
// again after a redeploy.
func (rt *Runtime) release(p *sim.Proc, inst *instance) {
	if inst.rec.dep == nil {
		rt.destroy(p, inst)
		return
	}
	n := inst.node
	wp := n.ensurePool(inst.rec)
	wp.insts = append(wp.insts, inst)
	n.warmCount++
	inst.rec.warm++
	for victim := rt.cache.admit(wp, n); victim != nil; victim = rt.cache.evict(n) {
		// The cache already removed the victim from its pool; settle the
		// counter here (destroy only decrements for instances it finds
		// pooled).
		victim.rec.warm--
		if o := rt.obs; o != nil {
			o.Counter("molecule_keepalive_evictions_total", puLabel(victim.node.pu.ID), obs.L("fn", victim.rec.name)).Inc()
		}
		rt.destroy(p, victim)
	}
}

// evictForPlacement frees one instance slot for a cold start of d that
// placement just rejected for capacity: the first PU (the pinned one, if
// any) that hosts d, is full and has a non-empty warm pool gives up its
// keep-alive victim. Reports whether a slot was freed. Density-pressure
// reclaim — idle warm instances yield to demand instead of pinning the
// PU's instance cap forever.
func (rt *Runtime) evictForPlacement(p *sim.Proc, d *Deployment, pin hw.PUID) bool {
	for _, n := range rt.general {
		if (pin >= 0 && n.pu.ID != pin) || !rt.hosts(n, d) || n.liveCount < n.capacity {
			continue
		}
		victim := rt.cache.victim(n)
		if victim == nil {
			continue
		}
		if o := rt.obs; o != nil {
			o.Counter("molecule_density_evictions_total", puLabel(n.pu.ID), obs.L("fn", victim.rec.name)).Inc()
		}
		rt.destroy(p, victim)
		return true
	}
	return false
}

// destroy deletes a warm instance's sandbox.
func (rt *Runtime) destroy(p *sim.Proc, inst *instance) {
	n := inst.node
	if wp := n.poolOf(inst.rec); wp != nil {
		if i := slices.Index(wp.insts, inst); i >= 0 {
			n.unpool(wp, i)
			inst.rec.warm--
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
// where possible: names[i] pinned to pins[i] (nil or -1: the host), visiting
// indices in order (nil = index order); an FPGA node of accel takes none.
// It is all or nothing. On any error it releases what it already took and
// returns no instances; otherwise the caller owns every instance and hands
// them back with releaseAll.
func (rt *Runtime) acquireAll(p *sim.Proc, names []string, pins []hw.PUID, order []int, accel []accelNode) ([]*instance, []*Deployment, int, error) {
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
		if accel != nil && accel[i].node != nil {
			continue
		}
		pin := rt.hostID
		if pins != nil && pins[i] >= 0 {
			pin = pins[i]
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
		rt.settleResult(d, &res)
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
