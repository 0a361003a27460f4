package sandbox

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/lang"
	"repro/internal/localos"
	"repro/internal/params"
	"repro/internal/sim"
)

// ContainerSandbox is one container-based sandbox on a CPU or DPU.
type ContainerSandbox struct {
	Spec  Spec
	State State
	Inst  *lang.Instance
	// Forked records whether the instance was produced by cfork (affects
	// per-request COW fault overhead, §6.6).
	Forked bool

	// Residual is the part of the spec's package manifest the zygote
	// ancestor this sandbox forked from had not imported; the runtime's
	// cold-start path pays for it after Start. Empty outside zygote mode.
	Residual lang.PkgSet
	// ZygoteDepth is the tree depth of the template the instance forked
	// from (0 = the generic root, i.e. flat cfork).
	ZygoteDepth int

	ns *localos.Namespace
	cg *localos.Cgroup
}

// FaultInjector lets a fault plan fail sandbox creations probabilistically.
// Declared consumer-side so sandbox need not import the faults package;
// *faults.Plan implements it.
type FaultInjector interface {
	CreateFault() error
}

// Counter is a monotonically increasing metric series handle.
type Counter interface {
	Inc()
}

// MetricSink is the runtime's consumer-side view of a metrics registry.
// Declared here so sandbox need not import the obs package (the same
// inversion as FaultInjector); molecule's observer adapter implements it
// over *obs.Observer.
type MetricSink interface {
	Counter(name, labelKey, labelValue string) Counter
}

// StartMode selects how ContainerRuntime.Start makes a sandbox's instance.
type StartMode int

const (
	StartBoot   StartMode = iota // cold-boot a fresh language runtime
	StartCfork                   // cfork the language's template (§4.2)
	StartZygote                  // cfork the deepest covering zygote template
)

// ContainerRuntime is the runc-style sandbox runtime for general-purpose
// PUs, extended with container fork. It is always driven with one-sized
// vectors, mirroring the paper's modified Docker runc.
type ContainerRuntime struct {
	OS *localos.OS

	// Mode picks how Start makes each sandbox's instance.
	Mode StartMode
	// CpusetMutexPatch applies the kernel cpuset patch (Fig 11a).
	CpusetMutexPatch bool
	// Metrics, when non-nil, counts fork/boot and container-pool events.
	// Nil (the default) adds no cost to the start path.
	Metrics MetricSink
	// Faults, when non-nil, can fail sandbox creation probabilistically.
	// Consulted before the container pool is touched, so an injected
	// failure never consumes a prepared container.
	Faults FaultInjector

	// ZygoteCfg carries the forest's budget/fitter knobs under StartZygote.
	// A zero FitInterval, MinHits or MaxGrowPerFit takes its params
	// default; BudgetPages and Seed are used as-is (a zero budget is a
	// root-only forest, the flat-cfork arm of the comparison).
	ZygoteCfg lang.ZygoteTreeConfig

	templates map[lang.Kind]*lang.Instance
	forest    map[lang.Kind]*lang.ZygoteTree
	pool      []preparedContainer // pre-initialized function containers
	sandboxes map[string]*ContainerSandbox

	// refillStart and refillAdd are Refill's two callbacks, bound once so a
	// refill allocates nothing but the container.
	refillStart, refillAdd func()
}

type preparedContainer struct {
	ns *localos.Namespace
	cg *localos.Cgroup
}

// count bumps a lifecycle counter labeled with the runtime's PU; a nil
// sink makes it free.
func (cr *ContainerRuntime) count(series string) {
	if cr.Metrics == nil {
		return
	}
	cr.Metrics.Counter(series, "pu", strconv.Itoa(int(cr.OS.PU.ID))).Inc()
}

// NewContainerRuntime returns a container runtime on the given OS.
func NewContainerRuntime(os *localos.OS) *ContainerRuntime {
	return &ContainerRuntime{
		OS:        os,
		templates: make(map[lang.Kind]*lang.Instance),
		sandboxes: make(map[string]*ContainerSandbox),
	}
}

// EnsureTemplate boots (once) the generic template container for a language
// runtime. Molecule prepares one template per language per PU (§4.2).
func (cr *ContainerRuntime) EnsureTemplate(p *sim.Proc, kind lang.Kind) (*lang.Instance, error) {
	if t, ok := cr.templates[kind]; ok {
		return t, nil
	}
	spec, err := lang.SpecFor(kind)
	if err != nil {
		return nil, err
	}
	t := lang.BootCold(p, cr.OS, spec, "template-"+string(kind), true)
	cr.templates[kind] = t
	return t, nil
}

// EnsureForest boots (once) the zygote tree for a language runtime, rooted
// at the runtime's generic template.
func (cr *ContainerRuntime) EnsureForest(p *sim.Proc, kind lang.Kind) (*lang.ZygoteTree, error) {
	if t, ok := cr.forest[kind]; ok {
		return t, nil
	}
	root, err := cr.EnsureTemplate(p, kind)
	if err != nil {
		return nil, err
	}
	if cr.forest == nil {
		cr.forest = make(map[lang.Kind]*lang.ZygoteTree)
	}
	t := lang.NewZygoteTree(cr.OS, root, cr.ZygoteCfg)
	cr.forest[kind] = t
	return t, nil
}

// Forest returns the zygote tree for kind, or nil if none was booted.
func (cr *ContainerRuntime) Forest(kind lang.Kind) *lang.ZygoteTree {
	return cr.forest[kind]
}

// ResetForests retires every specialized zygote template (executor kill or
// PU crash). Generic root templates survive, matching the flat-template
// lifecycle; pinned nodes drain before exiting so refcounts release exactly
// once. A runtime with no forests is untouched.
func (cr *ContainerRuntime) ResetForests() {
	for _, kind := range []lang.Kind{lang.Python, lang.Node} {
		if t, ok := cr.forest[kind]; ok {
			t.Reset()
			cr.count("sandbox_zygote_resets_total")
		}
	}
}

// Prewarm pre-initializes n function containers off the request critical
// path (the Fig 11a "FuncContainer" optimization).
func (cr *ContainerRuntime) Prewarm(p *sim.Proc, n int) {
	for i := 0; i < n; i++ {
		p.Sleep(params.ContainerCreateTime)
		cr.addPrepared()
	}
}

// Refill prepares one more function container in the background: it joins
// the pool ContainerCreateTime from now. The refill is two scheduler
// callbacks, one due now that schedules the other, so its events take the
// same (time, seq) positions, and Scheduled() the same count, as a process
// spawned now that runs Prewarm(p, 1), without its coroutine switches.
func (cr *ContainerRuntime) Refill() {
	env := cr.OS.Env
	if cr.refillStart == nil {
		cr.refillAdd = cr.addPrepared
		cr.refillStart = func() { env.AfterFunc(params.ContainerCreateTime, cr.refillAdd) }
	}
	env.AfterFunc(0, cr.refillStart)
}

// addPrepared creates one function container and adds it to the pool.
func (cr *ContainerRuntime) addPrepared() {
	cr.pool = append(cr.pool, preparedContainer{
		ns: cr.OS.NewNamespace("pool"),
		cg: cr.OS.NewCgroup("pool", 1, 1<<28),
	})
}

// PoolSize reports the number of prepared containers available.
func (cr *ContainerRuntime) PoolSize() int { return len(cr.pool) }

// takeContainer pops a prepared container, or creates one named fc-<id> on
// the critical path when the pool is empty. Only a miss builds the name.
func (cr *ContainerRuntime) takeContainer(p *sim.Proc, id string) (*localos.Namespace, *localos.Cgroup, bool) {
	if n := len(cr.pool); n > 0 {
		c := cr.pool[n-1]
		cr.pool[n-1] = preparedContainer{}
		cr.pool = cr.pool[:n-1]
		return c.ns, c.cg, true
	}
	p.Sleep(params.ContainerCreateTime)
	name := "fc-" + id
	return cr.OS.NewNamespace(name), cr.OS.NewCgroup(name, 1, 1<<28), false
}

// Create implements Runtime. For containers, creation records the sandbox
// and reserves its function container (from the prepared pool when
// available).
func (cr *ContainerRuntime) Create(p *sim.Proc, specs []Spec) error {
	for _, spec := range specs {
		if _, exists := cr.sandboxes[spec.ID]; exists {
			return fmt.Errorf("sandbox: container %q already exists", spec.ID)
		}
		if spec.Lang == "" {
			return fmt.Errorf("sandbox: container %q has no language runtime", spec.ID)
		}
		if cr.Faults != nil {
			if err := cr.Faults.CreateFault(); err != nil {
				return fmt.Errorf("sandbox: create %q on PU %d: %w", spec.ID, cr.OS.PU.ID, err)
			}
		}
		ns, cg, pooled := cr.takeContainer(p, spec.ID)
		series := "sandbox_pool_misses_total"
		if pooled {
			series = "sandbox_pool_hits_total"
		}
		cr.count(series)
		cr.sandboxes[spec.ID] = &ContainerSandbox{
			Spec: spec, State: StateCreated, ns: ns, cg: cg,
		}
	}
	return nil
}

// Start implements Runtime: boot (or cfork) the function instance in each
// sandbox.
func (cr *ContainerRuntime) Start(p *sim.Proc, ids []string) error {
	for _, id := range ids {
		sb, ok := cr.sandboxes[id]
		if !ok {
			return fmt.Errorf("sandbox: no container %q", id)
		}
		if sb.State != StateCreated {
			return fmt.Errorf("sandbox: container %q is %v, want created", id, sb.State)
		}
		spec, err := lang.SpecFor(sb.Spec.Lang)
		if err != nil {
			return err
		}
		switch cr.Mode {
		case StartZygote:
			err = cr.startZygote(p, sb)
		case StartCfork:
			var tmpl *lang.Instance
			if tmpl, err = cr.EnsureTemplate(p, sb.Spec.Lang); err == nil {
				err = cr.cfork(p, sb, tmpl, false)
			}
		default:
			inst := lang.BootCold(p, cr.OS, spec, lang.ProcName(sb.Spec.FuncID), false)
			inst.Proc.NS, inst.Proc.CG = sb.ns, sb.cg
			inst.LoadFunction(p, sb.Spec.FuncID)
			sb.Inst, sb.Forked = inst, false
			cr.count("sandbox_plain_boots_total")
		}
		if err != nil {
			return err
		}
		sb.State = StateRunning
	}
	return nil
}

// cfork forks the sandbox's instance from tmpl into its prepared
// container. keepMerged leaves tmpl parked single-threaded afterwards.
func (cr *ContainerRuntime) cfork(p *sim.Proc, sb *ContainerSandbox, tmpl *lang.Instance, keepMerged bool) error {
	inst, err := lang.Cfork(p, tmpl, sb.Spec.FuncID, lang.CforkOptions{
		PreparedContainer:  true,
		CpusetMutexPatch:   cr.CpusetMutexPatch,
		Namespace:          sb.ns,
		Cgroup:             sb.cg,
		KeepTemplateMerged: keepMerged,
	})
	if err != nil {
		return err
	}
	sb.Inst, sb.Forked = inst, true
	cr.count("sandbox_cfork_total")
	return nil
}

// startZygote forks the sandbox's instance from the deepest zygote
// template covering its package manifest. The node is pinned for the
// duration of the fork so a concurrent fitter prune (or forest reset)
// defers the template's exit instead of releasing its address space out
// from under the in-flight fork. The residual imports are recorded on the
// sandbox, not paid here: the caller charges them on its own span so
// attribution can split ancestor-resolution from residual-import time.
func (cr *ContainerRuntime) startZygote(p *sim.Proc, sb *ContainerSandbox) error {
	tree, err := cr.EnsureForest(p, sb.Spec.Lang)
	if err != nil {
		return err
	}
	node := tree.Resolve(sb.Spec.Pkgs)
	tree.Pin(node)
	// Zygote templates park merged between forks (SOCK-style).
	err = cr.cfork(p, sb, node.Inst, true)
	tree.Unpin(node)
	if err != nil {
		return err
	}
	sb.Residual = sb.Spec.Pkgs.Residual(node.Pkgs)
	sb.ZygoteDepth = node.Depth()
	cr.count("sandbox_zygote_forks_total")
	if node.ID != 0 {
		cr.count("sandbox_zygote_ancestor_hits_total")
	}
	tree.Observe(sb.Spec.Pkgs)
	if tree.NeedsFit() {
		tree.BeginFit()
		cr.OS.Env.Spawn("zygote-fit", func(bg *sim.Proc) {
			tree.Fit(bg)
		})
	}
	return nil
}

// Kill implements Runtime.
func (cr *ContainerRuntime) Kill(p *sim.Proc, ids []string, sig int) error {
	for _, id := range ids {
		sb, ok := cr.sandboxes[id]
		if !ok {
			return fmt.Errorf("sandbox: no container %q", id)
		}
		if sb.State == StateRunning {
			sb.State = StateStopped
		}
	}
	return nil
}

// Delete implements Runtime: tear down the instance and release resources.
// Unlike runf, containers must be deleted explicitly to reclaim memory and
// cgroup resources (§3.5).
func (cr *ContainerRuntime) Delete(p *sim.Proc, ids []string) error {
	for _, id := range ids {
		sb, ok := cr.sandboxes[id]
		if !ok {
			return fmt.Errorf("sandbox: no container %q", id)
		}
		if sb.Inst != nil {
			sb.Inst.Exit()
		}
		sb.State = StateDeleted
		delete(cr.sandboxes, id)
	}
	return nil
}

// State implements Runtime.
func (cr *ContainerRuntime) State(ids []string) []Status {
	if ids == nil {
		for id := range cr.sandboxes {
			ids = append(ids, id)
		}
		sort.Strings(ids) // deterministic order for nil queries
	}
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		st := StateUnknown
		if sb, ok := cr.sandboxes[id]; ok {
			st = sb.State
		}
		out = append(out, Status{ID: id, State: st})
	}
	return out
}

// MemoryStats sums the memory footprint of the runtime's live pieces:
// running sandbox instances (count + PSS bytes) and template PSS bytes —
// the generic templates, or the whole zygote forest when one is booted
// (its root is the generic template, so the two never double-count).
// Iteration is sorted, keeping the float sums deterministic.
func (cr *ContainerRuntime) MemoryStats() (instances int, instPSS, tmplPSS float64) {
	ids := make([]string, 0, len(cr.sandboxes))
	for id := range cr.sandboxes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if sb := cr.sandboxes[id]; sb.Inst != nil {
			instances++
			instPSS += sb.Inst.PSSBytes()
		}
	}
	for _, kind := range []lang.Kind{lang.Python, lang.Node} {
		if t, ok := cr.forest[kind]; ok {
			tmplPSS += t.TemplatePSSPages() * params.PageSize
			continue
		}
		if tmpl, ok := cr.templates[kind]; ok {
			tmplPSS += tmpl.PSSBytes()
		}
	}
	return instances, instPSS, tmplPSS
}

// Sandbox returns the container sandbox with the given ID, or nil.
func (cr *ContainerRuntime) Sandbox(id string) *ContainerSandbox {
	return cr.sandboxes[id]
}

// Adopt registers an externally created sandbox (e.g. a snapshot-restored
// instance) so the standard lifecycle verbs apply to it.
func (cr *ContainerRuntime) Adopt(id string, sb *ContainerSandbox) {
	cr.sandboxes[id] = sb
}

var _ Runtime = (*ContainerRuntime)(nil)
