package molecule

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// ErrNoCapacity reports that placement failed because every eligible live
// PU is at its instance cap. Callers that admission-control (the cluster
// gateway and boss) match it with errors.Is to requeue instead of failing
// the request.
var ErrNoCapacity = errors.New("no capacity")

// Profile is one execution setting a user selects for a function: a PU kind
// plus its resource/price point (§4.1: Molecule requires end-users to
// explicitly assign resources and select PU types by price and ability).
type Profile struct {
	Kind hw.PUKind
	// MemoryMB is the per-instance memory reservation.
	MemoryMB int
	// PricePerMs is the billing rate; DPUs are cheapest, FPGAs most
	// expensive (§4.1).
	PricePerMs float64
}

// DefaultProfile returns the standard price point for a PU kind.
func DefaultProfile(kind hw.PUKind) Profile {
	switch kind {
	case hw.DPU:
		return Profile{Kind: hw.DPU, MemoryMB: 128, PricePerMs: 0.6}
	case hw.FPGA:
		return Profile{Kind: hw.FPGA, MemoryMB: 0, PricePerMs: 4.0}
	case hw.GPU:
		return Profile{Kind: hw.GPU, MemoryMB: 0, PricePerMs: 3.0}
	default:
		return Profile{Kind: hw.CPU, MemoryMB: 128, PricePerMs: 1.0}
	}
}

// Deployment is a function registered with the platform together with its
// selected profiles.
type Deployment struct {
	Fn       *workloads.Function
	Profiles []Profile

	// Pkgs is the deploy's dependency-closed package manifest — by default
	// the closure of the function's catalog imports, overridable per deploy
	// with DeployWithManifest. The zygote forest resolves cold starts
	// against it.
	Pkgs lang.PkgSet
	// PkgTail is the function's private import tail: DepImport minus the
	// manifest closure's import cost, the initialization no shared template
	// can pre-run. Zygote cold starts always pay it, so a root-only forest
	// pays exactly DepImport — the flat-cfork baseline.
	PkgTail time.Duration

	// preferred caches the placement decision for repeat invocations: the
	// first node the general-placement scan would consider for this
	// deployment. Topology and profiles are fixed after Deploy, so this is
	// static; placeGeneral still verifies the dynamic conditions (capacity,
	// liveness) and falls back to the full scan when they fail, making the
	// fast path provably identical to the scan.
	preferred *puNode
}

// SupportsKind reports whether the deployment has a profile for kind.
func (d *Deployment) SupportsKind(k hw.PUKind) bool {
	for _, pr := range d.Profiles {
		if pr.Kind == k {
			return true
		}
	}
	return false
}

// ProfileFor returns the profile for kind.
func (d *Deployment) ProfileFor(k hw.PUKind) (Profile, bool) {
	for _, pr := range d.Profiles {
		if pr.Kind == k {
			return pr, true
		}
	}
	return Profile{}, false
}

// Deploy registers a function under one or more profiles. FPGA/GPU profiles
// are validated against the function's accelerator implementations; FPGA
// deployment extends the device's vectorized image (one reprogramming per
// deploy batch — use DeployAll for whole applications).
func (rt *Runtime) Deploy(p *sim.Proc, funcName string, profiles ...Profile) error {
	return rt.deploy(p, funcName, nil, profiles...)
}

// DeployWithManifest registers a function with an explicit package manifest
// overriding the function's catalog imports — a deploy that vendors its own
// dependencies, or strips unused ones. The manifest is closed over package
// dependencies before use.
func (rt *Runtime) DeployWithManifest(p *sim.Proc, funcName string, packages []string, profiles ...Profile) error {
	if packages == nil {
		packages = []string{}
	}
	return rt.deploy(p, funcName, packages, profiles...)
}

func (rt *Runtime) deploy(p *sim.Proc, funcName string, manifest []string, profiles ...Profile) error {
	fn, err := rt.Registry.Get(funcName)
	if err != nil {
		return err
	}
	if len(profiles) == 0 {
		profiles = []Profile{DefaultProfile(hw.CPU)}
	}
	for _, pr := range profiles {
		switch pr.Kind {
		case hw.FPGA:
			if !fn.HasFPGA() {
				return fmt.Errorf("molecule: %q has no FPGA implementation", funcName)
			}
		case hw.GPU:
			if !fn.HasGPU() {
				return fmt.Errorf("molecule: %q has no GPU implementation", funcName)
			}
		}
	}
	d := &Deployment{Fn: fn, Profiles: profiles}
	direct := fn.Packages
	if manifest != nil {
		direct = manifest
	}
	if d.Pkgs, err = lang.Closure(direct); err != nil {
		return fmt.Errorf("molecule: deploy %q: %w", funcName, err)
	}
	if d.PkgTail = fn.DepImport - d.Pkgs.ImportCost(); d.PkgTail < 0 {
		d.PkgTail = 0
	}
	d.preferred = rt.preferredNode(d)
	rt.funcs[funcName] = d
	// Accelerator profiles: install the function into the device image.
	for _, pr := range profiles {
		switch pr.Kind {
		case hw.FPGA:
			if err := rt.extendFPGAImages(p, funcName); err != nil {
				return err
			}
		case hw.GPU:
			if err := rt.loadGPUKernel(p, funcName); err != nil {
				return err
			}
		}
	}
	return nil
}

// Undeploy removes a function from the platform: its warm instances are
// destroyed and FPGA devices drop it from their images at the next
// reprogramming (the deferred-destroy semantics of §3.5).
func (rt *Runtime) Undeploy(p *sim.Proc, funcName string) error {
	if _, ok := rt.funcs[funcName]; !ok {
		return fmt.Errorf("molecule: function %q not deployed", funcName)
	}
	delete(rt.funcs, funcName)
	for _, n := range rt.orderedNodes() {
		if n.cr != nil {
			for _, inst := range append([]*instance(nil), n.warm[funcName]...) {
				rt.destroy(p, inst)
			}
			delete(n.warm, funcName)
		}
		if n.runf != nil {
			for i, fn := range n.fpgaVector {
				if fn == funcName {
					n.fpgaVector = append(n.fpgaVector[:i], n.fpgaVector[i+1:]...)
					// Mark the live sandbox deleted; the fabric keeps the
					// configuration until the next create replaces it.
					for _, st := range n.runf.State(nil) {
						if sb := n.runf.Sandbox(st.ID); sb != nil && sb.Spec.FuncID == funcName {
							n.runf.Delete(p, []string{st.ID})
						}
					}
					break
				}
			}
		}
	}
	return nil
}

// Deployment returns the registered deployment for a function.
func (rt *Runtime) Deployment(funcName string) (*Deployment, error) {
	d, ok := rt.funcs[funcName]
	if !ok {
		return nil, fmt.Errorf("molecule: function %q not deployed", funcName)
	}
	return d, nil
}

// extendFPGAImages adds funcName to the vectorized image of the
// least-loaded FPGA and reprograms it (Create with the full vector, §4.2
// "caching FPGA function instances"). A device caches at most as many
// instances as it has DRAM banks; beyond that the keep-alive policy evicts
// the lowest-priority cached function, whose next request will reprogram
// the image again (a cold image miss).
func (rt *Runtime) extendFPGAImages(p *sim.Proc, funcName string) error {
	var target *puNode
	for _, n := range rt.orderedNodes() {
		if n.runf == nil {
			continue
		}
		if target == nil || len(n.fpgaVector) < len(target.fpgaVector) {
			target = n
		}
	}
	if target == nil {
		return fmt.Errorf("molecule: no FPGA available for %q", funcName)
	}
	for _, existing := range target.fpgaVector {
		if existing == funcName {
			if _, ok := target.runf.Running(funcName); ok {
				return nil // already cached
			}
			// Cached, but its sandbox was killed: reflash the vector.
			return rt.reprogramFPGA(p, target)
		}
	}
	// Up to three instances share each DRAM bank (Table 4 caches 12
	// instances over an F1's four banks); the wrapper's bank locks keep
	// sharers from running concurrently.
	capSlots := 3 * len(target.pu.Device.Banks())
	for len(target.fpgaVector) >= capSlots {
		victim := 0
		for i := 1; i < len(target.fpgaVector); i++ {
			if rt.cache.Priority(target.fpgaVector[i]) < rt.cache.Priority(target.fpgaVector[victim]) {
				victim = i
			}
		}
		evicted := target.fpgaVector[victim]
		target.fpgaVector = append(target.fpgaVector[:victim], target.fpgaVector[victim+1:]...)
		target.pu.Device.ReleaseBank(evicted)
		p.Tracef("fpga image on PU %d evicted %s (keep-alive)", target.pu.ID, evicted)
	}
	target.fpgaVector = append(target.fpgaVector, funcName)
	rt.cache.hit(funcName) // cached functions participate in the policy
	return rt.reprogramFPGA(p, target)
}

// reprogramFPGA flushes the node's current vector as one image and starts
// (preps) every member so subsequent requests are warm.
func (rt *Runtime) reprogramFPGA(p *sim.Proc, n *puNode) error {
	if err := rt.remoteCommand(p, n.pu.ID, nil); err != nil {
		return err
	}
	specs := make([]sandbox.Spec, 0, len(n.fpgaVector))
	ids := make([]string, 0, len(n.fpgaVector))
	for _, fn := range n.fpgaVector {
		n.sandboxSeq++
		id := fmt.Sprintf("fpga-%s-%d", fn, n.sandboxSeq)
		specs = append(specs, sandbox.Spec{ID: id, FuncID: fn})
		ids = append(ids, id)
	}
	if err := n.runf.Create(p, specs); err != nil {
		return err
	}
	return n.runf.Start(p, ids)
}

// accelSandboxes is the sandbox table runf and rung share.
type accelSandboxes interface {
	Running(funcID string) (id string, ok bool)
}

// accelSandboxFor finds the running kind (FPGA or GPU) sandbox for
// funcName, returning its node as well.
func (rt *Runtime) accelSandboxFor(kind hw.PUKind, funcName string) (*puNode, string, error) {
	for _, n := range rt.orderedNodes() {
		if n.pu.Kind != kind || n.accel == nil {
			continue
		}
		if id, ok := n.accel.Running(funcName); ok {
			return n, id, nil
		}
	}
	return nil, "", fmt.Errorf("molecule: no running %v sandbox for %q", kind, funcName)
}

// ensureAccel returns the running kind sandbox for funcName, installing the
// function on a miss — the cold path: extend the FPGA image or load the
// GPU kernel — and looking it up again. The install gets its own span only
// under a non-nil parent.
func (rt *Runtime) ensureAccel(p *sim.Proc, kind hw.PUKind, funcName string, parent *obs.Span) (*puNode, string, error) {
	if n, id, err := rt.accelSandboxFor(kind, funcName); err == nil {
		return n, id, nil
	}
	install, name := rt.extendFPGAImages, "fpga.extend_image"
	if kind == hw.GPU {
		install, name = rt.loadGPUKernel, "gpu.load_kernel"
	}
	var span *obs.Span
	if parent != nil {
		span = rt.obs.Span(parent, name, -1)
	}
	err := install(p, funcName)
	span.Finish()
	if err != nil {
		return nil, "", err
	}
	return rt.accelSandboxFor(kind, funcName)
}

// loadGPUKernel installs funcName on the first GPU.
func (rt *Runtime) loadGPUKernel(p *sim.Proc, funcName string) error {
	for _, n := range rt.orderedNodes() {
		if n.rung == nil {
			continue
		}
		n.sandboxSeq++
		id := fmt.Sprintf("gpu-%s-%d", funcName, n.sandboxSeq)
		if err := rt.remoteCommand(p, n.pu.ID, nil); err != nil {
			return err
		}
		if err := n.rung.Create(p, []sandbox.Spec{{ID: id, FuncID: funcName}}); err != nil {
			return err
		}
		return n.rung.Start(p, []string{id})
	}
	return fmt.Errorf("molecule: no GPU available for %q", funcName)
}

// generalKinds is the deterministic placement preference for container
// functions: CPU first, then DPUs (hoisted so placeGeneral does not build
// the slice per call).
var generalKinds = [...]hw.PUKind{hw.CPU, hw.DPU}

// preferredNode returns the first node the unpinned placement scan would
// examine for d — the statically most-preferred host of its container
// instances. Nil when no general-purpose PU matches the profiles.
func (rt *Runtime) preferredNode(d *Deployment) *puNode {
	for _, kind := range generalKinds {
		if !d.SupportsKind(kind) {
			continue
		}
		for _, pu := range rt.Machine.PUsOfKind(kind) {
			if n := rt.nodes[pu.ID]; n != nil && n.cr != nil {
				return n
			}
		}
	}
	return nil
}

// placeGeneral picks a general-purpose PU for a new instance of d:
// explicit pin if given, else the first profile kind with free capacity
// (CPU first, then DPUs — matching the Fig 2a density experiment where DPU
// instances absorb overflow).
func (rt *Runtime) placeGeneral(d *Deployment, pin hw.PUID) (*puNode, error) {
	if pin >= 0 {
		n := rt.nodes[pin]
		if n == nil || n.cr == nil {
			return nil, fmt.Errorf("molecule: PU %d cannot host container functions", pin)
		}
		if rt.puDown(pin) {
			return nil, fmt.Errorf("molecule: PU %d: %w", pin, faults.ErrPUDown)
		}
		if !d.SupportsKind(n.pu.Kind) {
			return nil, fmt.Errorf("molecule: %q has no %v profile", d.Fn.Name, n.pu.Kind)
		}
		if n.liveCount >= n.capacity {
			return nil, fmt.Errorf("molecule: PU %d at capacity (%d): %w", pin, n.capacity, ErrNoCapacity)
		}
		return n, nil
	}
	// Cached placement: the preferred node is by construction the first
	// candidate the scan below would examine, so when it can take the
	// instance right now the scan's answer is exactly it — returned here
	// without walking the machine.
	if n := d.preferred; n != nil && n.liveCount < n.capacity && !rt.puDown(n.pu.ID) {
		return n, nil
	}
	// The kind-then-PU-ID scan is what makes failover deterministic: when a
	// preferred PU is down, the placement lands on the lowest-ordered
	// surviving PU with capacity.
	anyLive := false
	anyDown := false
	for _, kind := range generalKinds {
		if !d.SupportsKind(kind) {
			continue
		}
		for _, pu := range rt.Machine.PUsOfKind(kind) {
			n := rt.nodes[pu.ID]
			if n == nil || n.cr == nil {
				continue
			}
			if rt.puDown(pu.ID) {
				anyDown = true
				continue
			}
			anyLive = true
			if n.liveCount < n.capacity {
				return n, nil
			}
		}
	}
	if !anyLive && anyDown {
		// Not a capacity problem: every PU that could host the function is
		// crashed. Report infrastructure failure so callers that queue on
		// ErrNoCapacity (the cluster boss) fail over instead of waiting for
		// capacity that cannot free up.
		return nil, fmt.Errorf("molecule: every PU supporting %q is down: %w", d.Fn.Name, faults.ErrPUDown)
	}
	return nil, fmt.Errorf("molecule: %w for %q on any live PU", ErrNoCapacity, d.Fn.Name)
}
