package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// SimTime forbids wall-clock calls in simulation-facing packages. Everything
// under the virtual clock must derive time from sim.Env / sim.Proc: a single
// time.Now or time.Sleep makes golden reports diverge across runs and
// worker counts, which is exactly the nondeterminism the byte-identical
// report tests exist to rule out. time.Duration and the time constants are
// fine — they are values, not clock reads.
var SimTime = &analysis.Analyzer{
	Name:     "simtime",
	Doc:      "forbid wall-clock time calls (time.Now, time.Sleep, ...) in simulation-facing packages; use the virtual clock",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runSimTime,
}

// wallClockFuncs are the package time functions that read or wait on the
// host's real clock.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

func runSimTime(pass *analysis.Pass) (interface{}, error) {
	layer, ok := classify(pass.Pkg.Path())
	if !ok || !layer.Sim {
		return nil, nil
	}
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return
		}
		if !wallClockFuncs[fn.Name()] {
			return
		}
		if isTestFile(pass, pass.Fset.Position(sel.Pos()).Filename) {
			return
		}
		pass.Reportf(sel.Pos(),
			"wall-clock time.%s in simulation package %s: derive time from the virtual clock (sim.Env/sim.Proc) instead",
			fn.Name(), pass.Pkg.Path())
	})
	return nil, nil
}
