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
	"sort"
	"strings"
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

var catalog = func() map[string]*Package {
	m := make(map[string]*Package, len(catalogList))
	for i := range catalogList {
		m[catalogList[i].Name] = &catalogList[i]
	}
	return m
}()

// CatalogNames returns every catalog package name in catalog order.
func CatalogNames() []string {
	out := make([]string, len(catalogList))
	for i := range catalogList {
		out[i] = catalogList[i].Name
	}
	return out
}

// PkgSet is a dependency-closed package set: sorted, unique names whose
// transitive dependencies are all members. The canonical form makes subset
// tests a single merge walk and set identity a string compare.
type PkgSet []string

// Closure resolves the given direct imports to a canonical PkgSet,
// expanding transitive dependencies. Unknown packages are an error.
func Closure(names []string) (PkgSet, error) {
	if len(names) == 0 {
		return nil, nil
	}
	seen := make(map[string]bool, len(names)*2)
	var visit func(name string) error
	visit = func(name string) error {
		if seen[name] {
			return nil
		}
		pkg, ok := catalog[name]
		if !ok {
			return fmt.Errorf("lang: unknown package %q", name)
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
	out := make(PkgSet, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// Covers reports whether sub ⊆ s. Both sets must be canonical (sorted,
// unique). It allocates nothing: a zygote resolves every cold start
// through it.
//
//molecule:hotpath
func (s PkgSet) Covers(sub PkgSet) bool {
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

// Equal reports whether two canonical sets hold the same packages.
func (s PkgSet) Equal(o PkgSet) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Residual returns s minus covered: the packages a fork from a template
// holding covered must still import.
func (s PkgSet) Residual(covered PkgSet) PkgSet {
	if len(covered) == 0 {
		return s
	}
	var out PkgSet
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

// appendIntersect appends s ∩ o to dst and returns the extended set.
func (s PkgSet) appendIntersect(dst, o PkgSet) PkgSet {
	i := 0
	for _, name := range s {
		for i < len(o) && o[i] < name {
			i++
		}
		if i < len(o) && o[i] == name {
			dst = append(dst, name)
		}
	}
	return dst
}

// ImportCost sums the host-CPU import time of every member.
func (s PkgSet) ImportCost() time.Duration {
	var d time.Duration
	for _, name := range s {
		if pkg, ok := catalog[name]; ok {
			d += pkg.Import
		}
	}
	return d
}

// ImportPages sums the resident pages every member maps when imported.
func (s PkgSet) ImportPages() int {
	n := 0
	for _, name := range s {
		if pkg, ok := catalog[name]; ok {
			n += pkg.Pages
		}
	}
	return n
}

// Key returns the canonical string identity of the set.
func (s PkgSet) Key() string {
	return strings.Join(s, ",")
}

// appendKey appends the bytes of s.Key() to b: a map lookup through
// string(b) finds the set's entry without allocating the key.
func (s PkgSet) appendKey(b []byte) []byte {
	for i, name := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, name...)
	}
	return b
}
