package lint

import (
	"go/ast"
	"go/types"
	"strconv"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// DetRand forbids nondeterministic randomness in simulation-facing packages.
// The global math/rand generator is seeded from the wall clock and shared
// across goroutines, so two runs (or two worker counts) diverge; and
// crypto/rand is nondeterministic by construction. Randomness must flow from
// an explicit seeded source — rand.New(rand.NewSource(seed)) — threaded
// through the call graph, the way internal/faults and internal/loadgen do.
// The constructors New, NewSource, and NewZipf are therefore allowed; every
// other package-level math/rand function (Intn, Float64, Shuffle, Seed, ...)
// consults hidden global state and is flagged.
var DetRand = &analysis.Analyzer{
	Name:     "detrand",
	Doc:      "forbid unseeded global math/rand and crypto/rand in simulation-facing packages; thread a seeded *rand.Rand",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDetRand,
}

// seededConstructors are the math/rand functions that build an explicit
// source instead of consulting the global one.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runDetRand(pass *analysis.Pass) (interface{}, error) {
	layer, ok := classify(pass.Pkg.Path())
	if !ok || !layer.Sim {
		return nil, nil
	}
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.ImportSpec)(nil), (*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		if isTestFile(pass, pass.Fset.Position(n.Pos()).Filename) {
			return
		}
		switch n := n.(type) {
		case *ast.ImportSpec:
			path, err := strconv.Unquote(n.Path.Value)
			if err == nil && path == "crypto/rand" {
				pass.Reportf(n.Pos(),
					"crypto/rand in simulation package %s: simulation randomness must be seed-reproducible; use a seeded *math/rand.Rand",
					pass.Pkg.Path())
			}
		case *ast.SelectorExpr:
			fn, isFn := pass.TypesInfo.Uses[n.Sel].(*types.Func)
			if !isFn || fn.Pkg() == nil {
				return
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
			default:
				return
			}
			// Only package-level functions touch the hidden global state;
			// methods on an explicit *rand.Rand are exactly what we want.
			if fn.Type().(*types.Signature).Recv() != nil {
				return
			}
			if seededConstructors[fn.Name()] {
				return
			}
			pass.Reportf(n.Pos(),
				"global rand.%s in simulation package %s: thread a seeded *rand.Rand (rand.New(rand.NewSource(seed))) instead",
				fn.Name(), pass.Pkg.Path())
		}
	})
	return nil, nil
}
