package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Reasons an exported name may stand with no non-test reference; every
// allowlist entry uses one. A name that only its own package's tests use is
// never allowlisted: it belongs in that package's export_test.go.
const (
	// reasonDiagnostics: kernel state a test inspects from another package.
	reasonDiagnostics = "kernel diagnostics"
	// reasonAuditInput: a counter the ROADMAP "executable invariants" audit
	// will read.
	reasonAuditInput = "audit input for the ROADMAP executable-invariants item"
	// reasonTestHelper: used by the tests of a package other than its own.
	reasonTestHelper = "cross-package test helper"
)

// reasonPaper is a paper mechanism, cited by its section.
func reasonPaper(section string) string { return "paper mechanism, " + section }

// exportAllowlist names every exported declaration under exportRoots that is
// kept with no non-test reference. Keys are as in scanExports.
var exportAllowlist = map[string]string{
	"internal/sim.Env.EnableDigest":     reasonDiagnostics,
	"internal/sim.Env.Digest":           reasonDiagnostics,
	"internal/sim.Env.TraceLog":         reasonDiagnostics,
	"internal/sim.Env.BlockedProcs":     reasonDiagnostics,
	"internal/sim.Sharded.BlockedProcs": reasonDiagnostics,
	"internal/sim.Sharded.Domains":      reasonDiagnostics,
	"internal/sim.Sharded.Lookahead":    reasonDiagnostics,

	"internal/xpu.Node.RevokeCap":        reasonPaper("DESIGN S5 (revoke_cap XPUcall)"),
	"internal/xpu.Node.GetXPUPID":        reasonPaper("DESIGN S5 (get_xpupid XPUcall)"),
	"internal/molecule.Runtime.Undeploy": reasonPaper("§3.5 (deferred FPGA destroy)"),

	"internal/xpu.Shim.NumFIFOs":           reasonAuditInput,
	"internal/xpu.Shim.NumCaps":            reasonAuditInput,
	"internal/localos.OS.NumFIFOs":         reasonAuditInput,
	"internal/localos.OS.NumProcesses":     reasonAuditInput,
	"internal/lang.ZygoteTree.LeakedNodes": reasonAuditInput,
	"internal/mem.AddressSpace.Released":   reasonAuditInput,

	"internal/obs.Tracer.Find":                 reasonTestHelper,
	"internal/obs.Tracer.Children":             reasonTestHelper,
	"internal/obs/attrib.Invocation.Residue":   reasonTestHelper,
	"internal/mem.AddressSpace.SharedPages":    reasonTestHelper,
	"internal/localos.Process.Exited":          reasonTestHelper,
	"internal/lang.ZygoteTree.UsedPages":       reasonTestHelper,
	"internal/lang.CatalogNames":               reasonTestHelper,
	"internal/sandbox.KillOne":                 reasonTestHelper,
	"internal/sandbox.StateOne":                reasonTestHelper,
	"internal/hw.Interconnect.Lookahead":       reasonTestHelper,
	"internal/sim/simbench.SleepPastCallbacks": reasonTestHelper,
}

// exportRoots hold the declarations that must earn their keep. benchmark/ is
// a separate module that is read for references only: it is the sole caller
// of the simbench rigs and of Boss.Run.
var (
	exportRoots    = []string{"internal", "cmd", "examples"}
	exportRefRoots = []string{"benchmark"}
)

// TestExportsHaveCallers: every exported top-level func, method, type,
// const and var under internal/, cmd/ and examples/ is named by some
// non-test code, or the allowlist keeps it with a reason — and every
// allowlist entry still names a declaration that needs it. Like the layer
// table test, it fails in both directions.
func TestExportsHaveCallers(t *testing.T) {
	s, err := scanExports("../..", exportRoots, exportRefRoots)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.decls) < 100 {
		t.Fatalf("scanned only %d exported declarations — wrong working directory?", len(s.decls))
	}
	for _, msg := range s.violations(exportAllowlist) {
		t.Error(msg)
	}
}

// TestExportsScannerFixture runs the same scan on a small tree that holds
// each case once, so a scanner bug cannot pass the real-tree test silently.
func TestExportsScannerFixture(t *testing.T) {
	s, err := scanExports("testdata/exports", []string{"internal"}, []string{"benchmark"})
	if err != nil {
		t.Fatal(err)
	}
	got := s.violations(map[string]string{
		"internal/a.Allowed":       reasonAuditInput,
		"internal/a.Used":          reasonAuditInput,
		"internal/a.Gone":          reasonDiagnostics,
		"internal/a.T.OwnTestOnly": reasonTestHelper,
		"internal/a.T.Shared":      reasonTestHelper,
	})
	want := []string{
		"allowlist entry internal/a.Gone names no exported declaration; delete the entry",
		"allowlist entry internal/a.T.OwnTestOnly (" + reasonTestHelper + ") is used by no other package's tests; move it to its package's export_test.go",
		"allowlist entry internal/a.Used is referenced now; delete the entry",
		"internal/a.Recurse has no non-test reference: delete it, move it to its package's export_test.go, or allowlist it with a reason",
		"internal/a.Unused has no non-test reference: delete it, move it to its package's export_test.go, or allowlist it with a reason",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fixture violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// exportScan is what scanExports collects. Matching is by name, not by
// go/types: any identifier spelled like a declaration counts as a use of it,
// whatever it resolves to. That keeps the scan fast and dependency-free, and
// makes it a lower bound on dead surface — a method named Close is live as
// soon as anything calls any Close.
type exportScan struct {
	decls    []exportDecl
	uses     map[string]int             // name -> non-test uses
	testDirs map[string]map[string]bool // name -> dirs of _test.go files naming it
}

// exportDecl is one exported declaration. key is "<dir>.<Name>", or
// "<dir>.<Recv>.<Name>" for a method; dir is slash-separated and relative
// to the scan root.
type exportDecl struct{ key, name, dir string }

// scanExports parses every Go file under root (vendor/, testdata/ and
// dot-directories skipped). Exported declarations are collected from the
// non-test files of declDirs; non-test uses from declDirs and refDirs; test
// uses from every _test.go file. An identifier that declares something —
// a top-level name, field, parameter or interface method — is not a use,
// and neither is a declaration's own name inside its body.
func scanExports(root string, declDirs, refDirs []string) (*exportScan, error) {
	s := &exportScan{uses: make(map[string]int), testDirs: make(map[string]map[string]bool)}
	role := make(map[string]string) // dir -> "decl" or "ref"
	for _, d := range declDirs {
		role[d] = "decl"
	}
	for _, d := range refDirs {
		role[d] = "ref"
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "vendor" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		test := strings.HasSuffix(path, "_test.go")
		r := role[strings.SplitN(dir, "/", 2)[0]]
		if !test && r == "" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declare := !test && r == "decl"
		for _, name := range s.file(f, dir, declare) {
			if !test {
				s.uses[name]++
				continue
			}
			if s.testDirs[name] == nil {
				s.testDirs[name] = make(map[string]bool)
			}
			s.testDirs[name][dir] = true
		}
		return nil
	})
	return s, err
}

// file records f's exported declarations (when declare is set) and returns
// the names of every identifier in f that is a use.
func (s *exportScan) file(f *ast.File, dir string, declare bool) []string {
	defs := make(map[*ast.Ident]bool)
	markSelf := func(n ast.Node, name string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				defs[id] = true
			}
			return true
		})
	}
	add := func(id *ast.Ident, key string) {
		defs[id] = true
		if declare && id.IsExported() {
			s.decls = append(s.decls, exportDecl{key: dir + "." + key, name: id.Name, dir: dir})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			key := d.Name.Name
			if d.Recv != nil {
				key = recvName(d.Recv.List[0].Type) + "." + key
			}
			add(d.Name, key)
			if d.Body != nil {
				markSelf(d.Body, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, spec.Name.Name)
					markSelf(spec.Type, spec.Name.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, id.Name)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if fl, ok := n.(*ast.Field); ok {
			for _, id := range fl.Names {
				defs[id] = true
			}
		}
		return true
	})
	var uses []string
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !defs[id] {
			uses = append(uses, id.Name)
		}
		return true
	})
	return uses
}

// recvName is the base type name of a method receiver: T for T, *T, T[K]
// and *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// violations checks the scan against allow, returning sorted messages: an
// unreferenced declaration allow does not name; an entry that is referenced
// now, or names no declaration; and a diagnostics or test-helper entry that
// no other package's tests use.
func (s *exportScan) violations(allow map[string]string) []string {
	var out []string
	declared := make(map[string]bool)
	for _, d := range s.decls {
		declared[d.key] = true
		reason, listed := allow[d.key]
		switch {
		case s.uses[d.name] > 0 && listed:
			out = append(out, fmt.Sprintf("allowlist entry %s is referenced now; delete the entry", d.key))
		case s.uses[d.name] > 0:
		case !listed:
			out = append(out, fmt.Sprintf("%s has no non-test reference: delete it, move it to its package's export_test.go, or allowlist it with a reason", d.key))
		case reason == reasonDiagnostics || reason == reasonTestHelper:
			other := false
			for dir := range s.testDirs[d.name] { //lint:unordered existence check
				other = other || dir != d.dir
			}
			if !other {
				out = append(out, fmt.Sprintf("allowlist entry %s (%s) is used by no other package's tests; move it to its package's export_test.go", d.key, reason))
			}
		}
	}
	for key := range allow { //lint:unordered out is sorted below
		if !declared[key] {
			out = append(out, fmt.Sprintf("allowlist entry %s names no exported declaration; delete the entry", key))
		}
	}
	sort.Strings(out)
	return out
}
