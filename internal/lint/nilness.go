package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

// Nilness reports dereferences of variables that are definitely nil on
// every path reaching the use: a pointer load or field access through a
// nil pointer, a store into a nil map, and a call of a nil function value.
//
// This is a CFG-based subset of the stock x/tools nilness analyzer. The
// stock pass is built on go/ssa, which the offline toolchain vendor does
// not ship, so this implementation reproduces its definitely-nil core on
// golang.org/x/tools/go/cfg instead: a forward must-analysis (a variable is
// tracked only while nil on ALL incoming paths) with branch refinement from
// `v == nil` / `v != nil` conditions. Variables whose address is taken or
// that are captured by a closure are never tracked, so the analysis only
// reports uses that cannot be anything but nil — no false positives by
// construction, at the cost of missing maybe-nil bugs the SSA version
// would catch.
var Nilness = &analysis.Analyzer{
	Name:     "nilness",
	Doc:      "report dereferences of definitely-nil pointers, stores to nil maps, and calls of nil functions",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      runNilness,
}

// nilTrackable reports whether a variable's type has a meaningful nil:
// pointer, map, or func. (Slices, channels, and interfaces are omitted:
// reads of nil slices and sends on nil channels have defined — if
// surprising — semantics, and interface nilness needs the SSA analysis.)
func nilTrackable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Signature:
		return true
	}
	return false
}

// nilFuncScope gathers the trackable local variables of one function:
// declared inside it, never address-taken, never used in a nested literal.
func nilFuncScope(pass *analysis.Pass, fn ast.Node, body *ast.BlockStmt) map[*types.Var]bool {
	track := make(map[*types.Var]bool)
	// Walk the whole function, not just the body: parameters and receivers
	// are defined on the signature and participate in branch refinement.
	ast.Inspect(fn, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok &&
				!v.IsField() && nilTrackable(v.Type()) &&
				v.Pos() >= fn.Pos() && v.Pos() < fn.End() {
				track[v] = true
			}
		}
		return true
	})
	// Disqualify escapes: &v anywhere, or any appearance inside a nested
	// function literal (the closure may write it at any time).
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if v := identVar(pass, ast.Unparen(n.X)); v != nil {
					delete(track, v)
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						delete(track, v)
					}
				}
				return true
			})
			return false
		}
		return true
	})
	return track
}

// nilState is the set of variables definitely nil at a program point.
// States are compared and joined by intersection (must-analysis).
type nilState map[*types.Var]bool

func (s nilState) clone() nilState {
	out := make(nilState, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

func (s nilState) equal(o nilState) bool {
	if len(s) != len(o) {
		return false
	}
	for v := range s {
		if !o[v] {
			return false
		}
	}
	return true
}

func (s nilState) intersect(o nilState) nilState {
	out := make(nilState)
	for v := range s {
		if o[v] {
			out[v] = true
		}
	}
	return out
}

// nilChecker runs the analysis over one function.
type nilChecker struct {
	pass  *analysis.Pass
	track map[*types.Var]bool
	seen  map[token.Pos]bool
}

// isNilLit reports whether e is the untyped nil literal.
func isNilLit(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// transfer applies one block node's gens and kills to the state: `var x *T`
// and `x = nil` make x definitely nil; any other assignment makes it
// unknown. Uses are reported (by the replay pass) against the state BEFORE
// the node's kills — RHS before LHS.
func (c *nilChecker) transfer(n ast.Node, state nilState) {
	switch n := n.(type) {
	case *ast.ValueSpec:
		// The cfg builder lowers `var x *T` DeclStmts to their ValueSpecs.
		for i, name := range n.Names {
			v, ok := c.pass.TypesInfo.Defs[name].(*types.Var)
			if !ok || !c.track[v] {
				continue
			}
			if len(n.Values) == 0 || (i < len(n.Values) && isNilLit(n.Values[i])) {
				state[v] = true // var x *T — zero value is nil
			} else {
				delete(state, v)
			}
		}
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				v := identVar(c.pass, lhs)
				if v == nil || !c.track[v] {
					continue
				}
				if isNilLit(n.Rhs[i]) {
					state[v] = true
				} else {
					delete(state, v)
				}
			}
		} else {
			for _, lhs := range n.Lhs {
				if v := identVar(c.pass, lhs); v != nil {
					delete(state, v) // multi-value: unknown
				}
			}
		}
	}
}

// reportUses flags every dereference of a definitely-nil variable in n.
func (c *nilChecker) reportUses(n ast.Node, state nilState) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.StarExpr:
			if v := c.nilVarUse(m.X, state); v != nil {
				c.report(m.Pos(), "nilness: nil dereference in load of *%s", v.Name())
			}
		case *ast.SelectorExpr:
			if sel, ok := c.pass.TypesInfo.Selections[m]; ok && sel.Kind() == types.FieldVal {
				if v := c.nilVarUse(m.X, state); v != nil {
					c.report(m.Pos(), "nilness: nil dereference in field access %s.%s", v.Name(), m.Sel.Name)
				}
			}
		case *ast.CallExpr:
			if v := c.nilVarUse(m.Fun, state); v != nil {
				c.report(m.Pos(), "nilness: call of nil function %s", v.Name())
			}
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if v := c.nilVarUse(ix.X, state); v != nil {
						if _, isMap := v.Type().Underlying().(*types.Map); isMap {
							c.report(ix.Pos(), "nilness: store into nil map %s", v.Name())
						}
					}
				}
			}
		}
		return true
	})
}

// nilVarUse resolves e to a tracked variable that is definitely nil.
func (c *nilChecker) nilVarUse(e ast.Expr, state nilState) *types.Var {
	v := identVar(c.pass, ast.Unparen(e))
	if v != nil && state[v] {
		return v
	}
	return nil
}

func (c *nilChecker) report(pos token.Pos, format string, args ...interface{}) {
	if c.seen[pos] {
		return
	}
	c.seen[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// refineEdge adapts the outgoing state along a conditional edge: after
// `v == nil` the true branch knows v is nil and the false branch knows it
// is not (and vice versa for !=).
func (c *nilChecker) refineEdge(b *cfg.Block, si int, state nilState) nilState {
	if len(b.Succs) != 2 || len(b.Nodes) == 0 {
		return state
	}
	cond, ok := b.Nodes[len(b.Nodes)-1].(ast.Expr)
	if !ok {
		return state
	}
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return state
	}
	var v *types.Var
	if isNilLit(bin.Y) {
		v = identVar(c.pass, ast.Unparen(bin.X))
	} else if isNilLit(bin.X) {
		v = identVar(c.pass, ast.Unparen(bin.Y))
	}
	if v == nil || !c.track[v] {
		return state
	}
	// nilOnTrue: taking the true edge proves v is nil.
	nilOnTrue := bin.Op == token.EQL
	takesTrue := si == 0
	out := state.clone()
	if nilOnTrue == takesTrue {
		out[v] = true
	} else {
		delete(out, v)
	}
	return out
}

func runNilness(pass *analysis.Pass) (interface{}, error) {
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	analyze := func(fn ast.Node, body *ast.BlockStmt, graph *cfg.CFG) {
		if graph == nil || body == nil {
			return
		}
		track := nilFuncScope(pass, fn, body)
		if len(track) == 0 {
			return
		}
		c := &nilChecker{pass: pass, track: track, seen: map[token.Pos]bool{}}
		// Must-analysis to a fixed point. in[b] == nil means "not yet
		// reached"; the join of a reached and an unreached edge is the
		// reached one.
		in := make([]nilState, len(graph.Blocks))
		if len(graph.Blocks) == 0 {
			return
		}
		in[0] = nilState{}
		for changed := true; changed; {
			changed = false
			for bi, b := range graph.Blocks {
				if in[bi] == nil {
					continue
				}
				state := in[bi].clone()
				for _, n := range b.Nodes {
					// During iteration only the transfer matters; reports
					// happen in the replay pass below.
					c.transfer(n, state)
				}
				for si, succ := range b.Succs {
					out := c.refineEdge(b, si, state)
					if in[succ.Index] == nil {
						in[succ.Index] = out.clone()
						changed = true
					} else if merged := in[succ.Index].intersect(out); !merged.equal(in[succ.Index]) {
						in[succ.Index] = merged
						changed = true
					}
				}
			}
		}
		for bi, b := range graph.Blocks {
			if in[bi] == nil {
				continue
			}
			state := in[bi].clone()
			for _, n := range b.Nodes {
				c.reportUses(n, state)
				c.transfer(n, state)
			}
		}
	}
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				analyze(n, n.Body, cfgs.FuncDecl(n))
			}
		case *ast.FuncLit:
			analyze(n, n.Body, cfgs.FuncLit(n))
		}
	})
	return nil, nil
}
