// Per-package import cost model for the zygote forest.
//
// The paper's cfork forks every cold start from one generic template per
// runtime, so each child still pays the full dependency-import cost at
// specialization time — the dominant term of the Fig 11a breakdown. The
// OpenLambda lineage (SOCK zygotes; Forklift's fitted zygote trees) shows
// that imports decompose per package: a template that has already imported a
// function's packages lets the fork skip them, and COW keeps the imported
// pages shared down the whole tree.
//
// This file models that decomposition: a small catalog of packages, each
// with an import CPU cost (scaled by the PU's startup factor, like every
// other startup-path cost in this package) and a resident-page footprint,
// linked by a dependency DAG. A function's manifest names its direct
// imports; Closure expands them. Catalog costs are calibrated so that each
// function's closure cost stays at or below its measured DepImport time —
// the remainder is the function's private import tail, initialization work
// (app code, config, connections) that no template can pre-run.
package lang

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/params"
)

// Package is one entry of the import-cost catalog.
type Package struct {
	Name   string
	Import time.Duration // CPU time to import on a host CPU core
	Pages  int           // resident pages the import maps
	Deps   []string      // direct dependencies (imported first)
}

func mbPages(mb int) int { return mb << 20 / params.PageSize }

// catalogList is the fixed package catalog, in a deterministic order.
// Import costs and footprints are loosely modeled on the FunctionBench
// dependency sets the workload catalog uses (numpy, pillow, jinja2, ...),
// calibrated so every function's dependency closure costs no more than its
// calibrated DepImport time.
var catalogList = []Package{
	{Name: "pyutils", Import: 6 * time.Millisecond, Pages: mbPages(1)},
	{Name: "numpy", Import: 36 * time.Millisecond, Pages: mbPages(9), Deps: []string{"pyutils"}},
	{Name: "blas", Import: 60 * time.Millisecond, Pages: mbPages(12), Deps: []string{"numpy"}},
	{Name: "pillow", Import: 30 * time.Millisecond, Pages: mbPages(6), Deps: []string{"pyutils"}},
	{Name: "imageops", Import: 24 * time.Millisecond, Pages: mbPages(4), Deps: []string{"pillow", "numpy"}},
	{Name: "jinja2", Import: 18 * time.Millisecond, Pages: mbPages(2), Deps: []string{"pyutils"}},
	{Name: "templating", Import: 48 * time.Millisecond, Pages: mbPages(5), Deps: []string{"jinja2"}},
	{Name: "crypto", Import: 28 * time.Millisecond, Pages: mbPages(3), Deps: []string{"pyutils"}},
	{Name: "fileio", Import: 22 * time.Millisecond, Pages: mbPages(2), Deps: []string{"pyutils"}},
	{Name: "zlibx", Import: 30 * time.Millisecond, Pages: mbPages(3), Deps: []string{"fileio"}},
	{Name: "ffmpeg", Import: 290 * time.Millisecond, Pages: mbPages(20), Deps: []string{"pyutils"}},
	{Name: "httpkit", Import: 34 * time.Millisecond, Pages: mbPages(4), Deps: []string{"pyutils"}},
	{Name: "nodeutils", Import: 8 * time.Millisecond, Pages: mbPages(1)},
	{Name: "alexa-sdk", Import: 24 * time.Millisecond, Pages: mbPages(3), Deps: []string{"nodeutils"}},
}

// maxPkgs is PkgSet's width: the most packages the catalog may hold.
const maxPkgs = 64

// catalog indexes catalogList for the set algebra.
var catalog = indexCatalog(catalogList)

// catalogIndex is what Closure and Key need of a catalog.
type catalogIndex struct {
	closure map[string]PkgSet // by name: the package and its transitive deps
	byName  []int             // catalog indices in package-name order
}

// indexCatalog indexes list. It panics if list outgrows a PkgSet or if a
// package names a dependency that does not precede it in list: one forward
// pass then builds every closure, and no dependency cycle can exist.
func indexCatalog(list []Package) catalogIndex {
	if len(list) > maxPkgs {
		panic(fmt.Sprintf("lang: %d catalog packages outgrow the %d-bit PkgSet", len(list), maxPkgs))
	}
	c := catalogIndex{closure: make(map[string]PkgSet, len(list)), byName: make([]int, len(list))}
	for i, pkg := range list {
		set := PkgSet(1) << i
		for _, d := range pkg.Deps {
			deps, ok := c.closure[d]
			if !ok {
				panic(fmt.Sprintf("lang: package %q depends on %q, which does not precede it in the catalog", pkg.Name, d))
			}
			set |= deps
		}
		c.closure[pkg.Name] = set
		c.byName[i] = i
	}
	sort.Slice(c.byName, func(a, b int) bool { return list[c.byName[a]].Name < list[c.byName[b]].Name })
	return c
}

// CatalogNames returns every catalog package name in catalog order.
func CatalogNames() []string {
	out := make([]string, len(catalogList))
	for i := range catalogList {
		out[i] = catalogList[i].Name
	}
	return out
}

// PkgSet is a package set, one bit per catalog package: bit i stands for
// catalogList[i]. Closure builds dependency-closed sets, the only kind the
// zygote forest holds. Set algebra is word arithmetic: s&sub == sub is
// sub ⊆ s, s&^o is s minus o, s&o is s ∩ o (closed when both are), and ==
// is set identity.
type PkgSet uint64

// Closure resolves the given direct imports to their dependency-closed
// PkgSet. Unknown packages are an error.
func Closure(names []string) (PkgSet, error) {
	var s PkgSet
	for _, n := range names {
		closure, ok := catalog.closure[n]
		if !ok {
			return 0, fmt.Errorf("lang: unknown package %q", n)
		}
		s |= closure
	}
	return s, nil
}

// Covers reports whether sub ⊆ s. A zygote resolves every cold start
// through it.
//
//molecule:hotpath
func (s PkgSet) Covers(sub PkgSet) bool { return s&sub == sub }

// Residual returns s minus covered: the packages a fork from a template
// holding covered must still import.
func (s PkgSet) Residual(covered PkgSet) PkgSet { return s &^ covered }

// ImportCost sums the host-CPU import time of every member.
func (s PkgSet) ImportCost() time.Duration {
	var d time.Duration
	for ; s != 0; s &= s - 1 {
		d += catalogList[bits.TrailingZeros64(uint64(s))].Import
	}
	return d
}

// ImportPages sums the resident pages every member maps when imported.
func (s PkgSet) ImportPages() int {
	n := 0
	for ; s != 0; s &= s - 1 {
		n += catalogList[bits.TrailingZeros64(uint64(s))].Pages
	}
	return n
}

// Key returns the canonical string identity of the set: its package names
// in name order, comma-separated.
func (s PkgSet) Key() string { return string(s.appendKey(nil)) }

// appendKey appends the bytes of s.Key() to b.
func (s PkgSet) appendKey(b []byte) []byte {
	start := len(b)
	for _, i := range catalog.byName {
		if s&(1<<i) == 0 {
			continue
		}
		if len(b) > start {
			b = append(b, ',')
		}
		b = append(b, catalogList[i].Name...)
	}
	return b
}

// compareKey orders s and o as strings.Compare orders their keys, without
// building them. At the first package in name order that only one of the
// two holds, that set's key goes on with the package's name. The other key
// either ends there, so it sorts first, or goes on with a later name, so it
// sorts after: no package name holds a byte at or below the key's ','.
func (s PkgSet) compareKey(o PkgSet) int {
	for _, i := range catalog.byName {
		bit := PkgSet(1) << i
		inS, inO := s&bit != 0, o&bit != 0
		s, o = s&^bit, o&^bit // each set's members after this name
		switch {
		case inS == inO:
		case inS && o == 0, inO && s != 0:
			return 1
		default:
			return -1
		}
	}
	return 0
}
