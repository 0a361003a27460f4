// Zygote forest: a tree of pre-warmed templates specialized by package set.
//
// The root of each tree is the runtime's generic cfork template. Children
// fork from their parent via the same OS COW fork as cfork itself, then
// import the packages the parent does not already hold — so a node's pages
// are shared with its whole subtree and every instance forked from it, and
// the *incremental* memory cost of a node is only its residual imports.
//
// A cold start resolves the function's package set to the deepest tree node
// whose packages are a subset of the function's (forking from a superset
// would execute imports the function never asked for — import side effects
// make that unsafe, so zygotes only ever under-approximate). The cold start
// then pays only the residual imports plus the function's private tail.
//
// The fitter (Fit) grows and prunes the tree online against the observed
// per-function import mix under a configurable page budget. It is seeded
// and virtual-time driven: candidate scoring, tie-breaking, insertion and
// pruning order are all derived from package-set keys and a splitmix64
// stream, never from Go map iteration or wall-clock time, so the fitted
// shape is byte-identical on both kernels and on every run.
//
// Zygote templates park merged (single-threaded, forkable) like SOCK's
// zygote processes: the merge cost is paid once when the node boots, and
// forks from it skip the merge entirely.
package lang

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/localos"
	"repro/internal/params"
	"repro/internal/sim"
)

// ZygoteNode is one pre-warmed template in the tree.
type ZygoteNode struct {
	ID   int
	Pkgs PkgSet // dependency-closed package set this template has imported
	Inst *Instance

	Parent   *ZygoteNode
	children []*ZygoteNode

	// residualPages is the node's incremental footprint: pages of the
	// packages it imported beyond its parent. Budget accounting charges
	// only this, because everything else is shared upward.
	residualPages int
	// cost and pages are Pkgs.ImportCost() and Pkgs.ImportPages(), summed
	// once at Grow: resolution compares cost for every covering child on
	// every cold start, and a fit round subtracts both from a candidate's
	// totals to price its residual over this node.
	cost  time.Duration
	pages int

	pins    int  // in-flight forks from this node; retire defers while > 0
	retired bool // no longer resolvable; exits when pins drain
	dead    bool // instance exited
	hits    int  // resolutions since the last fit round
	idle    int  // consecutive fit rounds with zero hits
}

// Depth returns the node's distance from the root.
func (n *ZygoteNode) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// ZygoteTreeConfig sets the fitter's knobs.
type ZygoteTreeConfig struct {
	// BudgetPages caps the summed residual pages of specialized nodes.
	// Zero means no specialized nodes ever grow: the tree stays root-only,
	// which is exactly flat cfork plus full imports on the child.
	BudgetPages int
	// FitInterval is how many observed cold starts trigger a fit round.
	FitInterval int
	// MinHits is the demand floor below which a candidate set is ignored.
	MinHits int
	// MaxGrowPerFit bounds how many nodes one fit round may boot.
	MaxGrowPerFit int
	// Seed drives the fitter's deterministic tie-breaking.
	Seed uint64
}

// DefaultZygoteTreeConfig returns the checked-in fitter defaults.
func DefaultZygoteTreeConfig() ZygoteTreeConfig {
	return ZygoteTreeConfig{
		BudgetPages:   params.ZygoteBudgetMB << 20 / params.PageSize,
		FitInterval:   params.ZygoteFitColdStarts,
		MinHits:       params.ZygoteMinHits,
		MaxGrowPerFit: params.ZygoteMaxGrowPerFit,
		Seed:          1,
	}
}

// ZygoteTree is a per-(runtime, PU) forest of package-specialized templates.
type ZygoteTree struct {
	Spec Spec
	OS   *localos.OS
	Root *ZygoteNode
	Cfg  ZygoteTreeConfig

	nextID    int
	usedPages int
	live      int // specialized (non-root) live nodes
	cold      int // observed cold starts since the last fit round
	fitting   bool
	gen       int // bumped by Reset; aborts in-flight fit rounds
	rounds    int

	obs     map[PkgSet]*zygoteObs
	obsList []*zygoteObs // obs in insertion order (no map iteration)

	// Reused buffers: Fit lists its candidates in cands and keeps its
	// accepted and grow lists and the prune pass's post-order walk, so a
	// fit round no larger than the last allocates nothing.
	cands    []zygoteCand
	accepted []*zygoteCand
	grow     []*zygoteCand
	post     []*ZygoteNode
}

type zygoteObs struct {
	pkgs  PkgSet
	tie   uint64 // pkgs.tieBreak(Seed), hashed on first observation
	count int
}

// zygoteCand is one package set a fit round scores, with the totals its
// comparisons read computed once per round.
type zygoteCand struct {
	pkgs  PkgSet // an observed set, or the intersection of two
	tie   uint64 // pkgs.tieBreak(Seed)
	cost  time.Duration
	pages int
	score float64
}

// NewZygoteTree wraps an existing generic template as the root of a tree.
func NewZygoteTree(os *localos.OS, root *Instance, cfg ZygoteTreeConfig) *ZygoteTree {
	if cfg.FitInterval <= 0 {
		cfg.FitInterval = params.ZygoteFitColdStarts
	}
	if cfg.MinHits <= 0 {
		cfg.MinHits = params.ZygoteMinHits
	}
	if cfg.MaxGrowPerFit <= 0 {
		cfg.MaxGrowPerFit = params.ZygoteMaxGrowPerFit
	}
	t := &ZygoteTree{
		Spec: root.Spec,
		OS:   os,
		Cfg:  cfg,
		obs:  make(map[PkgSet]*zygoteObs),
	}
	t.Root = &ZygoteNode{ID: 0, Inst: root}
	t.nextID = 1
	return t
}

// Resolve returns the deepest live node whose package set is a subset of
// pkgs — the best ancestor to fork this function from — and records the
// hit for the fitter. Runs on every zygote cold start.
//
//molecule:hotpath
func (t *ZygoteTree) Resolve(pkgs PkgSet) *ZygoteNode {
	n := t.resolveNode(pkgs)
	n.hits++
	return n
}

// resolveNode is Resolve without hit accounting (used by the fitter).
//
//molecule:hotpath
func (t *ZygoteTree) resolveNode(pkgs PkgSet) *ZygoteNode {
	n := t.Root
	for {
		var best *ZygoteNode
		var bestCost time.Duration
		for _, c := range n.children {
			if c.retired || c.dead || !pkgs.Covers(c.Pkgs) {
				continue
			}
			if best == nil || c.cost > bestCost || (c.cost == bestCost && c.ID < best.ID) {
				best, bestCost = c, c.cost
			}
		}
		if best == nil {
			return n
		}
		n = best
	}
}

// Pin marks an in-flight fork from the node, deferring any retire.
func (t *ZygoteTree) Pin(n *ZygoteNode) { n.pins++ }

// Unpin releases a pin, reaping the node if a retire was deferred on it.
func (t *ZygoteTree) Unpin(n *ZygoteNode) {
	n.pins--
	if n.pins == 0 && n.retired {
		t.reap(n)
	}
}

// Observe records a cold start's package set for the fitter. Observations
// are keyed by the set itself; its tie-break is hashed only on the set's
// first observation.
//
//molecule:hotpath
func (t *ZygoteTree) Observe(pkgs PkgSet) {
	t.cold++
	if pkgs == 0 {
		return
	}
	if o, ok := t.obs[pkgs]; ok {
		o.count++
		return
	}
	o := &zygoteObs{pkgs: pkgs, tie: pkgs.tieBreak(t.Cfg.Seed), count: 1}
	t.obs[pkgs] = o
	t.obsList = append(t.obsList, o)
}

// NeedsFit reports whether enough cold starts accumulated to run a fit
// round (and none is already in flight). A zero budget never fits: the
// tree stays root-only, the flat-cfork arm of the comparison.
func (t *ZygoteTree) NeedsFit() bool {
	return !t.fitting && t.Cfg.BudgetPages > 0 && t.cold >= t.Cfg.FitInterval
}

// BeginFit claims the in-flight fit slot; the caller then runs Fit on a
// background proc.
func (t *ZygoteTree) BeginFit() { t.fitting = true }

// Grow boots a new specialized template for pkgs as a child of the deepest
// covering node, paying fork plus residual imports on p. Returns the
// existing node if one already holds exactly pkgs. A nil node (no error)
// means the tree was reset while booting and the fresh template was
// discarded.
func (t *ZygoteTree) Grow(p *sim.Proc, pkgs PkgSet) (*ZygoteNode, error) {
	parent := t.resolveNode(pkgs)
	if parent.Pkgs == pkgs {
		return parent, nil
	}
	gen := t.gen
	residual := pkgs.Residual(parent.Pkgs)
	id := t.nextID
	t.nextID++
	t.Pin(parent)
	parent.Inst.MergeThreads(p)
	childProc, err := t.OS.Fork(p, parent.Inst.Proc, fmt.Sprintf("zygote-%s-%d", t.Spec.Kind, id))
	if err != nil {
		t.Unpin(parent)
		return nil, err
	}
	inst := &Instance{
		Spec:       t.Spec,
		OS:         t.OS,
		Proc:       childProc,
		baseVPN:    parent.Inst.baseVPN,
		IsTemplate: true,
		merged:     true, // parked single-threaded, ready to fork
	}
	inst.ImportResidual(p, residual, 0)
	t.Unpin(parent)
	if t.gen != gen || parent.retired || parent.dead {
		// The tree was reset (PU crash, executor kill) while this template
		// was booting: discard it, releasing its pages exactly once.
		t.OS.Exit(childProc)
		return nil, nil
	}
	node := &ZygoteNode{
		ID:            id,
		Pkgs:          pkgs,
		Inst:          inst,
		Parent:        parent,
		residualPages: residual.ImportPages(),
		cost:          pkgs.ImportCost(),
		pages:         pkgs.ImportPages(),
	}
	parent.children = append(parent.children, node)
	t.usedPages += node.residualPages
	t.live++
	return node, nil
}

// Retire removes a node from resolution. Its process exits as soon as no
// fork is in flight from it — exactly once, however the retire and the
// fork interleave.
func (t *ZygoteTree) Retire(n *ZygoteNode) {
	if n == t.Root || n.retired {
		return
	}
	n.retired = true
	if n.pins == 0 {
		t.reap(n)
	}
}

func (t *ZygoteTree) reap(n *ZygoteNode) {
	if n.dead {
		return
	}
	n.dead = true
	t.usedPages -= n.residualPages
	t.live--
	n.Inst.Exit()
	if par := n.Parent; par != nil && !par.dead {
		for i, c := range par.children {
			if c == n {
				par.children = append(par.children[:i], par.children[i+1:]...)
				break
			}
		}
	}
}

// Reset retires every specialized node (PU crash or executor kill): the
// generic root survives, pinned nodes drain before exiting, and any fit
// round in flight aborts instead of inserting into the dead shape.
func (t *ZygoteTree) Reset() {
	t.gen++
	t.cold = 0
	for _, n := range appendPostOrder(nil, t.Root) {
		t.Retire(n)
	}
}

// Fit runs one fit round: score candidate package sets against observed
// demand, grow the best under the page budget, prune cold leaves, decay
// the observation counts. Deterministic for a given seed and observation
// sequence: both sorts are total orders, whose last key orders the sets as
// their keys order (compareKey).
func (t *ZygoteTree) Fit(p *sim.Proc) {
	defer func() { t.fitting = false }()
	gen := t.gen
	t.cold = 0
	t.rounds++
	t.listCands()

	// Demand for a candidate is the total observed count of sets it can
	// serve (sets that contain it); saved is the import time a fork from
	// it would skip relative to today's deepest covering node, whose
	// packages it contains.
	accepted := t.accepted[:0]
	estPages := t.usedPages
	for i := range t.cands {
		c := &t.cands[i]
		demand := 0
		for _, o := range t.obsList {
			if o.pkgs.Covers(c.pkgs) {
				demand += o.count
			}
		}
		if demand < t.Cfg.MinHits {
			continue
		}
		saved := c.cost - t.resolveNode(c.pkgs).cost
		if saved <= 0 {
			continue
		}
		c.score = float64(demand) * saved.Seconds()
		accepted = append(accepted, c)
	}
	slices.SortFunc(accepted, func(a, b *zygoteCand) int {
		if a.score != b.score {
			return cmp.Compare(b.score, a.score)
		}
		if a.tie != b.tie {
			return cmp.Compare(a.tie, b.tie)
		}
		return a.pkgs.compareKey(b.pkgs)
	})

	// Select greedily under the budget, then boot cheapest-first so that
	// subset nodes exist before their supersets and become their parents.
	grow := t.grow[:0]
	for _, c := range accepted {
		if len(grow) >= t.Cfg.MaxGrowPerFit {
			break
		}
		need := c.pages - t.resolveNode(c.pkgs).pages
		if estPages+need > t.Cfg.BudgetPages {
			continue
		}
		estPages += need
		grow = append(grow, c)
	}
	t.accepted = accepted
	slices.SortFunc(grow, func(a, b *zygoteCand) int {
		if a.cost != b.cost {
			return cmp.Compare(a.cost, b.cost)
		}
		return a.pkgs.compareKey(b.pkgs)
	})
	t.grow = grow
	for _, c := range grow {
		if t.gen != gen {
			return
		}
		// Re-resolve at boot time: earlier boots this round may have
		// created a deeper parent, shrinking the residual.
		need := c.pages - t.resolveNode(c.pkgs).pages
		if t.usedPages+need > t.Cfg.BudgetPages {
			continue
		}
		if _, err := t.Grow(p, c.pkgs); err != nil || t.gen != gen {
			return
		}
	}

	// Prune leaves that went two full rounds without a hit, newest first.
	nodes := appendPostOrder(t.post[:0], t.Root)
	slices.SortFunc(nodes, func(a, b *ZygoteNode) int { return cmp.Compare(b.ID, a.ID) })
	for _, n := range nodes {
		if n == t.Root || n.dead || n.retired {
			continue
		}
		if n.hits == 0 {
			n.idle++
		} else {
			n.idle = 0
		}
		n.hits = 0
		if n.idle >= 2 && len(n.children) == 0 {
			t.Retire(n)
		}
	}
	clear(nodes)
	t.post = nodes[:0]

	// Exponential decay keeps the demand profile tracking the recent mix.
	keep := t.obsList[:0]
	for _, o := range t.obsList {
		o.count /= 2
		if o.count > 0 {
			keep = append(keep, o)
		} else {
			delete(t.obs, o.pkgs)
		}
	}
	clear(t.obsList[len(keep):])
	t.obsList = keep
}

// listCands lists the round's candidates: every observed set in
// observation order, then each pairwise intersection not already listed,
// in pair order — the shared prefixes worth hoisting into interior nodes.
// Intersections of dependency-closed sets are themselves closed. An
// intersection's tie-break is hashed only when it is newly listed.
func (t *ZygoteTree) listCands() {
	t.cands = t.cands[:0]
	for _, o := range t.obsList {
		t.addCand(o.pkgs, o.tie)
	}
	for i, a := range t.obsList {
		for _, b := range t.obsList[i+1:] {
			if set := a.pkgs & b.pkgs; set != 0 && !t.listed(set) {
				t.addCand(set, set.tieBreak(t.Cfg.Seed))
			}
		}
	}
}

// tieBreak is the seeded score tie-break of s: the FNV-1a hash of its key,
// mixed with the seed. The key is built on the stack.
func (s PkgSet) tieBreak(seed uint64) uint64 {
	var buf [128]byte
	return sim.SplitMix64(sim.FNVBytes(sim.FNVOffset, s.appendKey(buf[:0])) ^ seed)
}

// addCand lists set with its tie-break and import totals.
func (t *ZygoteTree) addCand(set PkgSet, tie uint64) {
	t.cands = append(t.cands, zygoteCand{pkgs: set, tie: tie, cost: set.ImportCost(), pages: set.ImportPages()})
}

// listed reports whether the round already lists set.
func (t *ZygoteTree) listed(set PkgSet) bool {
	for i := range t.cands {
		if t.cands[i].pkgs == set {
			return true
		}
	}
	return false
}

// appendPostOrder appends n's live subtree to dst, children before parents,
// in deterministic (insertion) order.
func appendPostOrder(dst []*ZygoteNode, n *ZygoteNode) []*ZygoteNode {
	for _, c := range n.children {
		dst = appendPostOrder(dst, c)
	}
	return append(dst, n)
}

// LiveNodes returns the number of live specialized templates (excluding
// the root).
func (t *ZygoteTree) LiveNodes() int { return t.live }

// UsedPages returns the summed residual pages of live specialized nodes —
// the quantity the budget caps.
func (t *ZygoteTree) UsedPages() int { return t.usedPages }

// Rounds returns how many fit rounds have completed or started.
func (t *ZygoteTree) Rounds() int { return t.rounds }

// LeakedNodes counts retired nodes whose process never exited — pinned
// forever by a lost fork. Always zero unless refcounting broke.
func (t *ZygoteTree) LeakedNodes() int {
	n := 0
	for _, node := range appendPostOrder(nil, t.Root) {
		if node.retired && !node.dead {
			n++
		}
	}
	return n
}

// TemplatePSSPages sums the proportional set size of every live template
// in the tree, root included. Shared ancestor pages split across sharers,
// so a deep tree costs far less than node-count × footprint.
func (t *ZygoteTree) TemplatePSSPages() float64 {
	var pss float64
	for _, n := range appendPostOrder(nil, t.Root) {
		if !n.dead && !n.retired {
			pss += n.Inst.Proc.AS.PSSPages()
		}
	}
	return pss
}

// ShapeString renders the live tree canonically — the fingerprint the
// determinism suite compares between the classic and windowed kernels.
func (t *ZygoteTree) ShapeString() string {
	var b strings.Builder
	var walk func(n *ZygoteNode, depth int)
	walk = func(n *ZygoteNode, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "#%d {%s} pages=%d\n", n.ID, n.Pkgs.Key(), n.residualPages)
		for _, c := range n.children {
			if !c.dead && !c.retired {
				walk(c, depth+1)
			}
		}
	}
	walk(t.Root, 0)
	return b.String()
}
