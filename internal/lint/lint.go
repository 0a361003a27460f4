// Package lint implements moleculelint: eight go/analysis analyzers that
// machine-check the invariants this reproduction's correctness rests on but
// the compiler cannot see.
//
// The five syntactic analyzers from the original suite:
//
//   - simtime: simulation-facing packages advance virtual time only; any
//     wall-clock call (time.Now, time.Sleep, ...) silently breaks the
//     byte-identical golden reports and seed-reproducible chaos soaks.
//   - detrand: randomness in simulation-facing packages must flow from an
//     explicit seeded source (as internal/faults does); the global math/rand
//     state and crypto/rand are nondeterministic across runs.
//   - layering: the import DAG is data (Table in layers.go), not convention.
//     Base layers never import faults, obs, molecule, or bench — fault and
//     metric hooks are injected consumer-side through interfaces.
//   - maporder: report/trace/placement packages must not iterate maps in
//     Go's randomized order unless the loop only collects keys for sorting
//     or carries an explicit //lint:unordered <reason> marker.
//   - hotpath: functions annotated //molecule:hotpath are pinned at zero
//     allocations per op; fmt formatting, string concatenation, capturing
//     closures, unguarded Tracef calls and struct values boxed into
//     interfaces defeat that.
//
// And the three CFG/dataflow analyzers covering the invariant classes
// recent PRs tripped over dynamically before the soaks caught them:
//
//   - crossdomain: closures crossing kernel-domain boundaries
//     (hw.Interconnect.Send/SendAfter, sim.Sharded.Send) must capture only
//     value copies and destination-owned state — shared mutable captures
//     are exactly what makes the shard count observable
//     (//lint:owned <reason> waives a protocol the analyzer cannot see).
//   - releasepath: resources acquired through the pairings in ReleaseTable
//     (molecule acquire/release, mem.AddressSpace Fork/Release, lang zygote
//     Pin/Unpin) must reach a release on every path, with cleanup defers
//     registered before fallible steps, and never release twice
//     (//lint:released <reason>).
//   - settleonce: every path through molecule's dispatch/recovery code
//     settles an invocation exactly once — the exactly-once billing
//     invariant, checked at compile time instead of only by the chaos soak
//     (//lint:settled <reason>).
//
// A local nilness subset (definitely-nil dereferences; the SSA-based stock
// pass needs go/ssa, which the offline vendor does not carry) and the stock
// copylocks pass round out the suite. Every waiver marker requires a
// reason, and markers no analyzer consumes are reported as stale.
//
// The suite runs standalone or as `go vet -vettool` via cmd/moleculelint
// (`make lint`); each analyzer has an analysistest-style suite under
// testdata/ driven by internal/lint/linttest (`make lint-fixtures`).
package lint

import (
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers is the full moleculelint suite in reporting order.
var Analyzers = []*analysis.Analyzer{
	SimTime,
	DetRand,
	Layering,
	MapOrder,
	HotPath,
	CrossDomain,
	ReleasePath,
	SettleOnce,
}

// Stock are the general-purpose passes the driver runs alongside the
// repo-specific suite: the vendored copylocks analyzer and the local
// nilness subset (see Nilness for why it is not the SSA-based stock pass).
// Split from Analyzers because they are not ours to fixture-test and carry
// no waiver markers.
var Stock []*analysis.Analyzer // populated in stock.go

// modulePrefix roots the layer table's keys: every entry in Table names a
// package directory below this prefix.
const modulePrefix = "repro/internal/"

// relInternal maps an import path to its layer-table key ("repro/internal/
// sim/simbench" -> "sim/simbench"). ok is false for packages outside the
// internal tree (cmd/, examples/, the repo root, other modules) and for the
// synthesized test packages go vet also feeds us ("foo_test" external test
// packages and ".test" mains), which are exempt from every layer rule.
func relInternal(path string) (string, bool) {
	// go list/vet name in-package test variants "pkg [pkg.test]".
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	rel, found := strings.CutPrefix(path, modulePrefix)
	if !found || rel == "" {
		return "", false
	}
	if strings.HasSuffix(rel, "_test") || strings.Contains(rel, ".test") {
		return "", false
	}
	return rel, true
}

// classify returns the layer-table entry for an import path, or ok=false
// when the package is outside the table's jurisdiction.
func classify(path string) (Layer, bool) {
	rel, ok := relInternal(path)
	if !ok {
		return Layer{}, false
	}
	l, ok := Table[rel]
	return l, ok
}

// isTestFile reports whether the file holding pos is a _test.go file. Test
// files may reach across layers, spend wall time, and iterate maps freely:
// they never run inside a simulation and the golden/chaos suites already
// pin their observable behavior.
func isTestFile(pass *analysis.Pass, name string) bool {
	return strings.HasSuffix(name, "_test.go")
}
