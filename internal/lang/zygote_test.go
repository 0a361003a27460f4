package lang

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
)

func TestClosureSortedDepClosed(t *testing.T) {
	s, err := Closure([]string{"blas"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Key(); got != "blas,numpy,pyutils" {
		t.Errorf("Closure(blas) = %q, want blas,numpy,pyutils", got)
	}
	// Duplicates and already-present deps collapse.
	s2, err := Closure([]string{"numpy", "blas", "numpy"})
	if err != nil {
		t.Fatal(err)
	}
	if s != s2 {
		t.Errorf("closure not canonical: %q vs %q", s.Key(), s2.Key())
	}
	if _, err := Closure([]string{"left-pad"}); err == nil {
		t.Error("unknown package accepted")
	}
	if s, err := Closure(nil); err != nil || s != 0 {
		t.Errorf("empty closure = %v, %v", s, err)
	}
}

func TestPkgSetOps(t *testing.T) {
	img, _ := Closure([]string{"imageops"}) // imageops pillow numpy pyutils
	blas, _ := Closure([]string{"blas"})    // blas numpy pyutils
	np, _ := Closure([]string{"numpy"})     // numpy pyutils

	if !img.Covers(np) || !blas.Covers(np) {
		t.Error("numpy closure not covered by its supersets")
	}
	if img.Covers(blas) || blas.Covers(img) {
		t.Error("disjoint-tip sets claim coverage")
	}
	if got := (img & blas).Key(); got != np.Key() {
		t.Errorf("imageops ∩ blas = %q, want %q", got, np.Key())
	}
	res := blas.Residual(np)
	if got := res.Key(); got != "blas" {
		t.Errorf("blas residual over numpy = %q, want blas", got)
	}
	if got := np.ImportCost() + res.ImportCost(); got != blas.ImportCost() {
		t.Errorf("residual cost does not decompose: %v + %v != %v",
			np.ImportCost(), res.ImportCost(), blas.ImportCost())
	}
	if blas.ImportPages() <= np.ImportPages() {
		t.Error("superset has no extra pages")
	}
}

func TestZygoteResolveDeepestSubset(t *testing.T) {
	env, os := newOS(hw.CPU)
	spec, _ := SpecFor(Python)
	env.Spawn("x", func(p *sim.Proc) {
		root := BootCold(p, os, spec, "tmpl", true)
		tr := NewZygoteTree(os, root, ZygoteTreeConfig{BudgetPages: 1 << 20, Seed: 1})

		np, _ := Closure([]string{"numpy"})
		blas, _ := Closure([]string{"blas"})
		img, _ := Closure([]string{"imageops"})

		nNp, err := tr.Grow(p, np)
		if err != nil || nNp == nil {
			t.Fatalf("grow numpy: %v %v", nNp, err)
		}
		nBlas, err := tr.Grow(p, blas)
		if err != nil || nBlas == nil {
			t.Fatalf("grow blas: %v %v", nBlas, err)
		}
		if nBlas.Parent != nNp {
			t.Errorf("blas node parent = %v, want the numpy node", nBlas.Parent.ID)
		}
		if nBlas.Depth() != 2 {
			t.Errorf("blas depth = %d, want 2", nBlas.Depth())
		}

		// Exact hit resolves to the deepest node.
		if got := tr.Resolve(blas); got != nBlas {
			t.Errorf("Resolve(blas) = #%d, want #%d", got.ID, nBlas.ID)
		}
		// A superset of numpy but not of blas stops at numpy: forking from
		// blas would run imports imageops never asked for.
		if got := tr.Resolve(img); got != nNp {
			t.Errorf("Resolve(imageops) = #%d, want numpy node #%d", got.ID, nNp.ID)
		}
		// Nothing in common with the tree: generic root.
		crypto, _ := Closure([]string{"crypto"})
		if got := tr.Resolve(crypto); got != tr.Root {
			t.Errorf("Resolve(crypto) = #%d, want root", got.ID)
		}

		// Budget accounting: blas node charges only its residual.
		if nBlas.residualPages >= blas.ImportPages() {
			t.Errorf("blas residual pages %d not smaller than full closure %d",
				nBlas.residualPages, blas.ImportPages())
		}
		if tr.UsedPages() != nNp.residualPages+nBlas.residualPages {
			t.Errorf("used pages %d != %d + %d", tr.UsedPages(), nNp.residualPages, nBlas.residualPages)
		}
	})
	env.Run()
}

func TestZygoteColdStartCheaperFromAncestor(t *testing.T) {
	spec, _ := SpecFor(Python)
	blas, _ := Closure([]string{"blas"})

	// Arm A: fork from the generic root, import the full closure.
	costFrom := func(grow bool) time.Duration {
		env, os := newOS(hw.CPU)
		var d time.Duration
		env.Spawn("x", func(p *sim.Proc) {
			root := BootCold(p, os, spec, "tmpl", true)
			tr := NewZygoteTree(os, root, ZygoteTreeConfig{BudgetPages: 1 << 20, Seed: 1})
			if grow {
				np, _ := Closure([]string{"numpy"})
				if _, err := tr.Grow(p, np); err != nil {
					t.Errorf("grow: %v", err)
				}
			}
			node := tr.Resolve(blas)
			start := p.Now()
			inst, err := Cfork(p, node.Inst, "fn", CforkOptions{KeepTemplateMerged: true})
			if err != nil {
				t.Errorf("cfork: %v", err)
				return
			}
			inst.ImportResidual(p, blas.Residual(node.Pkgs), 0)
			d = time.Duration(p.Now() - start)
		})
		env.Run()
		return d
	}
	flat, zyg := costFrom(false), costFrom(true)
	// The ancestor fork saves at least the prewarmed numpy closure's import
	// time; it also skips the root's merge (zygote nodes park merged), so
	// the saving is strictly larger than the import delta alone.
	np, _ := Closure([]string{"numpy"})
	if saved := flat - zyg; saved < np.ImportCost() {
		t.Errorf("ancestor fork saved %v, want at least the numpy closure %v (flat %v, zygote %v)",
			saved, np.ImportCost(), flat, zyg)
	}
}

func TestZygoteFitDeterministicShape(t *testing.T) {
	spec, _ := SpecFor(Python)
	mix := [][]string{
		{"blas"}, {"imageops"}, {"blas"}, {"crypto"}, {"imageops"},
		{"blas"}, {"templating"}, {"imageops"}, {"blas"}, {"crypto"},
		{"imageops"}, {"blas"}, {"blas"}, {"imageops"}, {"crypto"}, {"blas"},
	}
	run := func(seed uint64) (string, int) {
		env, os := newOS(hw.CPU)
		var shape string
		var rounds int
		env.Spawn("x", func(p *sim.Proc) {
			root := BootCold(p, os, spec, "tmpl", true)
			tr := NewZygoteTree(os, root, ZygoteTreeConfig{
				BudgetPages: mbPages(96), FitInterval: 8, MinHits: 2, MaxGrowPerFit: 4, Seed: seed,
			})
			for _, names := range mix {
				s, _ := Closure(names)
				tr.Resolve(s)
				tr.Observe(s)
				if tr.NeedsFit() {
					tr.BeginFit()
					tr.Fit(p)
				}
			}
			shape, rounds = tr.ShapeString(), tr.Rounds()
		})
		env.Run()
		return shape, rounds
	}
	s1, r1 := run(7)
	s2, r2 := run(7)
	if s1 != s2 || r1 != r2 {
		t.Errorf("same seed diverged:\n%s\nvs\n%s", s1, s2)
	}
	if !strings.Contains(s1, "blas") {
		t.Errorf("dominant blas mix grew no blas node:\n%s", s1)
	}
	// The shared numpy prefix of blas and imageops should be hoisted into an
	// interior node (pairwise-intersection candidate).
	if !strings.Contains(s1, "{numpy,pyutils}") {
		t.Errorf("shared numpy prefix not hoisted:\n%s", s1)
	}
}

func TestZygoteRetirePinnedDefersExit(t *testing.T) {
	env, os := newOS(hw.CPU)
	spec, _ := SpecFor(Python)
	env.Spawn("x", func(p *sim.Proc) {
		root := BootCold(p, os, spec, "tmpl", true)
		tr := NewZygoteTree(os, root, ZygoteTreeConfig{BudgetPages: 1 << 20, Seed: 1})
		np, _ := Closure([]string{"numpy"})
		n, err := tr.Grow(p, np)
		if err != nil || n == nil {
			t.Fatalf("grow: %v %v", n, err)
		}
		procs := os.NumProcesses()

		tr.Pin(n) // an in-flight fork holds the node
		tr.Retire(n)
		tr.Retire(n) // double retire must not double-reap
		if n.dead {
			t.Fatal("pinned node reaped immediately")
		}
		if os.NumProcesses() != procs {
			t.Fatal("pinned node's process exited early")
		}
		if tr.LeakedNodes() != 1 {
			t.Errorf("LeakedNodes = %d, want 1 while pinned", tr.LeakedNodes())
		}
		tr.Unpin(n)
		if !n.dead {
			t.Error("node not reaped when last pin dropped")
		}
		if got := os.NumProcesses(); got != procs-1 {
			t.Errorf("processes = %d, want %d (exactly one exit)", got, procs-1)
		}
		if tr.LeakedNodes() != 0 {
			t.Errorf("LeakedNodes = %d, want 0 after unpin", tr.LeakedNodes())
		}
		if tr.LiveNodes() != 0 || tr.UsedPages() != 0 {
			t.Errorf("live=%d used=%d after reap, want 0/0", tr.LiveNodes(), tr.UsedPages())
		}
	})
	env.Run()
}

func TestZygoteResetAbortsInFlightGrow(t *testing.T) {
	env, os := newOS(hw.CPU)
	spec, _ := SpecFor(Python)
	var tr *ZygoteTree
	var baseline int
	env.Spawn("grower", func(p *sim.Proc) {
		root := BootCold(p, os, spec, "tmpl", true)
		tr = NewZygoteTree(os, root, ZygoteTreeConfig{BudgetPages: 1 << 20, Seed: 1})
		baseline = os.NumProcesses()
		ff, _ := Closure([]string{"ffmpeg"}) // 290ms import: plenty of sleep to race with
		n, err := tr.Grow(p, ff)
		if err != nil {
			t.Errorf("grow: %v", err)
		}
		if n != nil {
			t.Error("grow inserted into a reset tree")
		}
	})
	env.Spawn("resetter", func(p *sim.Proc) {
		// Fire mid-import: the grower is asleep inside ImportResidual.
		p.Sleep(150 * time.Millisecond)
		if tr == nil {
			t.Fatal("resetter ran before grower")
		}
		tr.Reset()
	})
	env.Run()
	if got := os.NumProcesses(); got != baseline {
		t.Errorf("processes = %d, want %d (discarded template must exit exactly once)", got, baseline)
	}
	if tr.LiveNodes() != 0 || tr.UsedPages() != 0 || tr.LeakedNodes() != 0 {
		t.Errorf("tree not clean after aborted grow: live=%d used=%d leaked=%d",
			tr.LiveNodes(), tr.UsedPages(), tr.LeakedNodes())
	}
}

// TestZygoteObserveKeysWithoutAllocating: Observe keys a set by its mask,
// so only a set's first observation allocates, and that observation caches
// the set's tie-break; a grown node caches its import cost.
func TestZygoteObserveKeysWithoutAllocating(t *testing.T) {
	env, os := newOS(hw.CPU)
	spec, _ := SpecFor(Python)
	env.Spawn("x", func(p *sim.Proc) {
		root := BootCold(p, os, spec, "tmpl", true)
		tr := NewZygoteTree(os, root, ZygoteTreeConfig{BudgetPages: 1 << 20, Seed: 1})
		blas, _ := Closure([]string{"blas"})
		img, _ := Closure([]string{"imageops"})
		tr.Observe(blas)
		if allocs := testing.AllocsPerRun(100, func() { tr.Observe(blas) }); allocs != 0 {
			t.Errorf("Observe of a seen set allocates %v/op, want 0", allocs)
		}
		tr.Observe(img)
		if got, want := obsKeys(tr), blas.Key()+"|"+img.Key(); got != want {
			t.Errorf("observation keys %q, want %q", got, want)
		}
		if o := tr.obs[blas]; o == nil || o.count != 102 || o.tie != blas.tieBreak(1) {
			t.Errorf("blas observation = %+v, want count 102 and tie-break %d", o, blas.tieBreak(1))
		}
		n, err := tr.Grow(p, blas)
		if err != nil || n == nil {
			t.Fatalf("grow blas: %v %v", n, err)
		}
		if n.cost != blas.ImportCost() {
			t.Errorf("cached node cost %v, want %v", n.cost, blas.ImportCost())
		}
	})
	env.Run()
}

// obsKeys joins the tree's observation keys in insertion order.
func obsKeys(tr *ZygoteTree) string {
	keys := make([]string, len(tr.obsList))
	for i, o := range tr.obsList {
		keys[i] = o.pkgs.Key()
	}
	return strings.Join(keys, "|")
}

// TestZygoteFitCacheMatchesRebuild drives one observation stream through a
// tree that reuses its candidate buffer from round to round and through one
// whose buffer is dropped before every round, so a stale set or total left
// in a reused buffer would show. Rare sets decay out and return, which
// moves slots between observed sets and intersections, and the last rounds
// observe a steady mix. Each round's candidates must match refCands, and
// both trees must have grown the same nodes in the same order and agree on
// shape, used pages and round count.
func TestZygoteFitCacheMatchesRebuild(t *testing.T) {
	spec, _ := SpecFor(Python)
	// The two crypto sets share {pyutils, numpy, crypto}, which is never
	// observed itself, so some nodes grow from intersections.
	steady := [][]string{{"blas"}, {"blas"}, {"imageops", "crypto"}, {"imageops", "crypto"}, {"blas", "crypto"}, {"numpy"}, {"numpy"}}
	rare := [][]string{
		{"crypto"}, {"templating"}, {"zlibx"}, {"imageops", "crypto"},
		{"httpkit"}, {"blas", "templating"}, {"pillow", "jinja2"},
	}
	const rounds, steadyFrom = 48, 36
	type roundState struct {
		cands  string // refCands' rendering of the round's candidates
		shape  string
		grown  string // "id:key" of every node grown this round, in ID order
		used   int
		rounds int
	}
	observed := map[string]bool{}
	run := func(fresh bool) []roundState {
		env, os := newOS(hw.CPU)
		var states []roundState
		env.Spawn("x", func(p *sim.Proc) {
			root := BootCold(p, os, spec, "tmpl", true)
			tr := NewZygoteTree(os, root, ZygoteTreeConfig{
				BudgetPages: mbPages(64), FitInterval: 8, MinHits: 2, MaxGrowPerFit: 3, Seed: 11,
			})
			lastID := 0
			for r := 0; r < rounds; r++ {
				mix := append([][]string(nil), steady...)
				if r < steadyFrom {
					mix = append(mix, rare[(r*5)%len(rare)])
				} else {
					mix = append(mix, steady[0])
				}
				for _, names := range mix {
					s, _ := Closure(names)
					observed[s.Key()] = true
					tr.Resolve(s)
					tr.Observe(s)
				}
				if !tr.NeedsFit() {
					t.Fatalf("round %d: no fit due after %d observations", r, len(mix))
				}
				if fresh {
					tr.cands = nil
				}
				want := refCands(tr)
				tr.BeginFit()
				tr.Fit(p)
				st := roundState{shape: tr.ShapeString(), used: tr.UsedPages(), rounds: tr.Rounds()}
				for _, c := range tr.cands {
					st.cands += fmt.Sprintf("%s/%d/%v/%d ", c.pkgs.Key(), c.tie, c.cost, c.pages)
				}
				if st.cands != want {
					t.Fatalf("round %d (fresh buffers %v): candidates\n%s\nwant\n%s", r, fresh, st.cands, want)
				}
				nodes := appendPostOrder(nil, tr.Root)
				slices.SortFunc(nodes, func(a, b *ZygoteNode) int { return a.ID - b.ID })
				for _, n := range nodes {
					if n.ID > lastID {
						st.grown += fmt.Sprintf("%d:%s ", n.ID, n.Pkgs.Key())
						lastID = n.ID
					}
				}
				states = append(states, st)
			}
		})
		env.Run()
		return states
	}
	reused, fresh := run(false), run(true)
	grew, grewIsect := false, false
	for _, st := range reused {
		for _, g := range strings.Fields(st.grown) {
			grewIsect = grewIsect || !observed[g[strings.IndexByte(g, ':')+1:]]
		}
	}
	if !grewIsect {
		t.Error("no node grew from an intersection; listing intersections is untested")
	}
	for r := range reused {
		c, w := reused[r], fresh[r]
		if c != w {
			t.Fatalf("round %d: reused buffers diverged from fresh ones\nreused: grew %q used %d rounds %d\n%s\nfresh: grew %q used %d rounds %d\n%s",
				r, c.grown, c.used, c.rounds, c.shape, w.grown, w.used, w.rounds, w.shape)
		}
		grew = grew || c.grown != ""
	}
	if !grew {
		t.Error("no round grew a node; the comparison proves nothing")
	}
}

// refCands renders the candidates a fit round over tr's current
// observations must score, built the straightforward way: observed keys in
// insertion order, then each new pairwise intersection in pair order,
// deduplicated through a map, each with its tie-break and import totals.
func refCands(tr *ZygoteTree) string {
	seen := map[string]bool{}
	var sets []PkgSet
	for _, o := range tr.obsList {
		seen[o.pkgs.Key()] = true
		sets = append(sets, o.pkgs)
	}
	for i, a := range tr.obsList {
		for _, b := range tr.obsList[i+1:] {
			if s := a.pkgs & b.pkgs; s != 0 && !seen[s.Key()] {
				seen[s.Key()] = true
				sets = append(sets, s)
			}
		}
	}
	var out string
	for _, s := range sets {
		k := s.Key()
		out += fmt.Sprintf("%s/%d/%v/%d ", k, sim.SplitMix64(sim.FNVBytes(sim.FNVOffset, k)^tr.Cfg.Seed), s.ImportCost(), s.ImportPages())
	}
	return out
}
