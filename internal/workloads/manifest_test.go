package workloads

import (
	"strings"
	"testing"

	"repro/internal/lang"
)

// Every package manifest must be consistent with the function's measured
// DepImport: the closure's import time can never exceed it (the gap is the
// function's private import tail), so a root-only zygote forest degenerates
// to exactly the flat-cfork cost and a fitted forest can only save time.
func TestManifestClosureWithinDepImport(t *testing.T) {
	n := 0
	for _, fn := range All() {
		closure, err := lang.Closure(fn.Packages)
		if err != nil {
			t.Errorf("%s: bad manifest: %v", fn.Name, err)
			continue
		}
		if len(fn.Packages) == 0 {
			continue
		}
		n++
		if cost := closure.ImportCost(); cost > fn.DepImport {
			t.Errorf("%s: closure import %v exceeds DepImport %v", fn.Name, cost, fn.DepImport)
		}
	}
	if n < 10 {
		t.Errorf("only %d functions carry package manifests; the Zipf mix needs coverage", n)
	}
}

// Manifests must reference only cataloged packages, and the catalog itself
// must be dependency-acyclic (Closure terminates and is idempotent).
func TestCatalogClosed(t *testing.T) {
	for _, name := range lang.CatalogNames() {
		c1, err := lang.Closure([]string{name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c2, err := lang.Closure(strings.Split(c1.Key(), ","))
		if err != nil || c1 != c2 {
			t.Errorf("%s: closure not idempotent: %q vs %q (%v)", name, c1.Key(), c2.Key(), err)
		}
	}
}
