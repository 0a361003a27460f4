package lang

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// refSet is the reference model PkgSet is held to: the sorted, unique
// package names of a set, with the set algebra done as merge walks over
// them and per-name catalog lookups.
type refSet []string

// refCatalog is catalogList by name, built here rather than taken from
// catalog so that the model shares no index with the code under test.
var refCatalog = func() map[string]*Package {
	m := make(map[string]*Package, len(catalogList))
	for i := range catalogList {
		m[catalogList[i].Name] = &catalogList[i]
	}
	return m
}()

// refBit is each package's PkgSet bit, by name.
var refBit = func() map[string]PkgSet {
	m := make(map[string]PkgSet, len(catalogList))
	for i, pkg := range catalogList {
		m[pkg.Name] = 1 << i
	}
	return m
}()

func refClosure(names []string) (refSet, error) {
	seen := map[string]bool{}
	var visit func(name string) error
	visit = func(name string) error {
		if seen[name] {
			return nil
		}
		pkg, ok := refCatalog[name]
		if !ok {
			return fmt.Errorf("unknown package %q", name)
		}
		seen[name] = true
		for _, d := range pkg.Deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		return nil
	}
	for _, n := range names {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	out := refSet{}
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

func (s refSet) covers(sub refSet) bool {
	i := 0
	for _, want := range sub {
		for i < len(s) && s[i] < want {
			i++
		}
		if i >= len(s) || s[i] != want {
			return false
		}
		i++
	}
	return true
}

func (s refSet) equal(o refSet) bool { return slices.Equal(s, o) }

func (s refSet) residual(covered refSet) refSet {
	var out refSet
	i := 0
	for _, name := range s {
		for i < len(covered) && covered[i] < name {
			i++
		}
		if i < len(covered) && covered[i] == name {
			continue
		}
		out = append(out, name)
	}
	return out
}

func (s refSet) intersect(o refSet) refSet {
	var out refSet
	i := 0
	for _, name := range s {
		for i < len(o) && o[i] < name {
			i++
		}
		if i < len(o) && o[i] == name {
			out = append(out, name)
		}
	}
	return out
}

func (s refSet) importCost() time.Duration {
	var d time.Duration
	for _, name := range s {
		d += refCatalog[name].Import
	}
	return d
}

func (s refSet) importPages() int {
	n := 0
	for _, name := range s {
		n += refCatalog[name].Pages
	}
	return n
}

func (s refSet) key() string { return strings.Join(s, ",") }

// mask converts a reference set to the PkgSet it names.
func (s refSet) mask() PkgSet {
	var m PkgSet
	for _, name := range s {
		m |= refBit[name]
	}
	return m
}

// closedSets returns every dependency-closed subset of the catalog, in the
// reference model and as Closure builds it.
func closedSets(t testing.TB) ([]refSet, []PkgSet) {
	var refs []refSet
	var sets []PkgSet
	for m := 0; m < 1<<len(catalogList); m++ {
		var names []string
		for i, pkg := range catalogList {
			if m&(1<<i) != 0 {
				names = append(names, pkg.Name)
			}
		}
		ref, err := refClosure(names)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) != len(names) {
			continue // not closed
		}
		s, err := Closure(names)
		if err != nil {
			t.Fatal(err)
		}
		refs, sets = append(refs, ref), append(sets, s)
	}
	return refs, sets
}

// checkSet compares everything a single set answers with the model.
func checkSet(t testing.TB, ref refSet, s PkgSet) {
	t.Helper()
	if s != ref.mask() {
		t.Fatalf("set %q: mask %#x, want %#x", ref.key(), uint64(s), uint64(ref.mask()))
	}
	if got := s.Key(); got != ref.key() {
		t.Fatalf("Key = %q, want %q", got, ref.key())
	}
	if got := s.ImportCost(); got != ref.importCost() {
		t.Fatalf("%q: ImportCost = %v, want %v", ref.key(), got, ref.importCost())
	}
	if got := s.ImportPages(); got != ref.importPages() {
		t.Fatalf("%q: ImportPages = %d, want %d", ref.key(), got, ref.importPages())
	}
}

// checkPair compares every two-set operation with the model. It runs
// millions of times, so it does not mark itself a helper.
func checkPair(t testing.TB, ra, rb refSet, ka, kb string, a, b PkgSet) {
	if got, want := a.Covers(b), ra.covers(rb); got != want {
		t.Fatalf("%q covers %q = %v, want %v", ka, kb, got, want)
	}
	if got, want := a == b, ra.equal(rb); got != want {
		t.Fatalf("%q == %q is %v, want %v", ka, kb, got, want)
	}
	if got, want := a.Residual(b), ra.residual(rb).mask(); got != want {
		t.Fatalf("%q minus %q = %#x, want %#x", ka, kb, uint64(got), uint64(want))
	}
	if got, want := a&b, ra.intersect(rb).mask(); got != want {
		t.Fatalf("%q ∩ %q = %#x, want %#x", ka, kb, uint64(got), uint64(want))
	}
	if got, want := a.compareKey(b), strings.Compare(ka, kb); got != want {
		t.Fatalf("compareKey(%q, %q) = %d, want %d", ka, kb, got, want)
	}
}

// TestPkgSetMatchesReference holds the bitmask to the sorted-names model
// over every dependency-closed set of the catalog: each set's closure, key
// and totals, exhaustively, and the subset test, difference, intersection,
// identity and key order of each set with itself and with pairsPerSet
// others drawn from a seeded stream. All 3M pairs would take seconds.
func TestPkgSetMatchesReference(t *testing.T) {
	const pairsPerSet = 200
	refs, sets := closedSets(t)
	if len(sets) != 1731 {
		t.Fatalf("%d dependency-closed sets, want 1731", len(sets))
	}
	keys := make([]string, len(refs))
	for i, ref := range refs {
		checkSet(t, ref, sets[i])
		keys[i] = ref.key()
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i, a := range sets {
		checkPair(t, refs[i], refs[i], keys[i], keys[i], a, a)
		for range pairsPerSet {
			j := rng.IntN(len(sets))
			checkPair(t, refs[i], refs[j], keys[i], keys[j], a, sets[j])
		}
	}
}

// TestCatalogIndexGuards: a catalog wider than a PkgSet, or one whose
// package names a dependency that does not precede it, is refused.
func TestCatalogIndexGuards(t *testing.T) {
	wide := make([]Package, maxPkgs+1)
	for i := range wide {
		wide[i].Name = fmt.Sprintf("p%d", i)
	}
	mustPanic(t, "catalog wider than a PkgSet", func() { indexCatalog(wide) })
	indexCatalog(wide[:maxPkgs])
	mustPanic(t, "dependency after its dependent", func() {
		indexCatalog([]Package{{Name: "a", Deps: []string{"b"}}, {Name: "b"}})
	})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

// FuzzPkgSet decodes bytes into two arbitrary package sets, closed or not
// — each byte picks a catalog package and, by its top bit, the set — and
// holds every PkgSet operation on them to the reference model. Closure of
// each set's names is checked too.
func FuzzPkgSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0x84})
	f.Add([]byte{1, 3, 0x81, 0x8a})
	f.Fuzz(func(t *testing.T, data []byte) {
		var names [2][]string
		for _, c := range data {
			pkg := catalogList[int(c&0x7f)%len(catalogList)].Name
			names[c>>7] = append(names[c>>7], pkg)
		}
		var refs [2]refSet
		var sets [2]PkgSet
		for k := range names {
			for _, n := range names[k] {
				if !slices.Contains(refs[k], n) {
					refs[k] = append(refs[k], n)
				}
				sets[k] |= refBit[n]
			}
			sort.Strings(refs[k])
			checkSet(t, refs[k], sets[k])
			closed, err := Closure(names[k])
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refClosure(names[k])
			if err != nil {
				t.Fatal(err)
			}
			checkSet(t, ref, closed)
		}
		a, b := sets[0], sets[1]
		ka, kb := refs[0].key(), refs[1].key()
		checkPair(t, refs[0], refs[1], ka, kb, a, b)
		checkPair(t, refs[1], refs[0], kb, ka, b, a)
	})
}
