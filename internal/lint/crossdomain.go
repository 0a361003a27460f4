package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// CrossDomain checks the closures that cross kernel-domain boundaries: the
// callbacks handed to hw.Interconnect.Send/SendAfter and sim.Sharded.Send.
// Those closures run on the destination domain after a conservative
// barrier, by which time the sending domain may have run on to the end of
// its window. State they share with the sender is therefore read and
// written in an order that depends on how machines are partitioned into
// domains: the shard count becomes observable, which breaks the
// byte-identical-at-every-shard-count guarantee.
//
// A captured variable is accepted when it is provably harmless:
//
//   - destination-owned: the Send's `to` argument is rooted at the same
//     variable (ic.Send(env, n.Domain, sz, func(){ ...n... }) — n IS the
//     destination machine's state);
//   - a read-only value copy: its type contains no pointers, maps, slices,
//     channels, funcs, or interfaces at any depth, and the closure never
//     writes it (closures capture by reference, so even an int write would
//     alias the sender's variable);
//   - an error value (immutable by convention).
//
// Everything else — captured pointers, maps, slices, channels, funcs,
// written value captures — is rejected unless the call carries a
// //lint:owned <reason> waiver stating the ownership argument. This soundly
// over-approximates: some rejected captures are safe under a protocol the
// analyzer cannot see (the boss/worker request lifecycle), and the waiver
// records that protocol where the compiler can't.
var CrossDomain = &analysis.Analyzer{
	Name:     "crossdomain",
	Doc:      "cross-domain Interconnect/Sharded closures must capture only value copies and destination-owned state",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCrossDomain,
}

// crossDomainEdge matches one method whose final func() argument is
// delivered on another kernel domain.
type crossDomainEdge struct {
	recvPath string // package path of the receiver's named type
	recvName string // receiver type name
	method   string
	toArg    int // index of the destination-domain argument
}

// crossDomainEdges are the sanctioned cross-domain scheduling edges. The
// hw.Interconnect methods are the paper-faithful path; sim.Sharded.Send is
// the kernel primitive underneath them (its only non-test caller is the
// Interconnect itself, which forwards its parameter and is exempt under the
// forwarding rule).
var crossDomainEdges = []crossDomainEdge{
	{recvPath: "repro/internal/hw", recvName: "Interconnect", method: "Send", toArg: 1},
	{recvPath: "repro/internal/hw", recvName: "Interconnect", method: "SendAfter", toArg: 1},
	{recvPath: "repro/internal/sim", recvName: "Sharded", method: "Send", toArg: 1},
}

// edgeFor resolves a call to a cross-domain edge, or nil.
func edgeFor(pass *analysis.Pass, call *ast.CallExpr) *crossDomainEdge {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	named := namedRecv(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return nil
	}
	for i := range crossDomainEdges {
		e := &crossDomainEdges[i]
		if fn.Name() == e.method && named.Obj().Name() == e.recvName &&
			named.Obj().Pkg().Path() == e.recvPath {
			return e
		}
	}
	return nil
}

// namedRecv unwraps a (possibly pointer) receiver type to its named type.
func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// rootIdent returns the identifier at the base of a selector chain
// (n.Domain -> n), or nil when the expression is not rooted in one.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// valueLike reports whether t is a pure value: copying it shares no mutable
// state with the original. Pointers, slices, maps, channels, funcs, and
// interfaces are not; structs and arrays are value-like iff all their
// elements are.
func valueLike(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return true
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !valueLike(u.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	case *types.Array:
		return valueLike(u.Elem(), seen)
	default:
		return false
	}
}

// isErrorType reports whether t is exactly the error interface.
var errorType = types.Universe.Lookup("error").Type()

// captureKind classifies why a capture is rejected; empty = accepted.
func captureKind(pass *analysis.Pass, v *types.Var, lit *ast.FuncLit) string {
	if types.Identical(v.Type(), errorType) {
		return "" // errors are immutable by convention
	}
	if !valueLike(v.Type(), make(map[types.Type]bool)) {
		return fmt.Sprintf("%s (shared mutable state)", v.Type())
	}
	if writesVar(pass, lit.Body, v) {
		return fmt.Sprintf("%s (value type, but the closure writes it — closures capture by reference)", v.Type())
	}
	return ""
}

// writesVar reports whether body assigns to, increments, or takes the
// address of v.
func writesVar(pass *analysis.Pass, body ast.Node, v *types.Var) bool {
	hit := false
	ast.Inspect(body, func(n ast.Node) bool {
		if hit {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
					hit = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := n.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
				hit = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := n.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
					hit = true
				}
			}
		}
		return !hit
	})
	return hit
}

// enclosingFunc returns the outermost function boundary on the stack: the
// FuncDecl, or the outermost FuncLit for package-level initializers.
func enclosingFunc(stack []ast.Node) ast.Node {
	for _, n := range stack {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return n
		}
	}
	return nil
}

// isParamOf reports whether id resolves to a parameter (or receiver) of any
// function literal or declaration on the stack — the forwarding idiom,
// where a wrapper passes its own callback parameter through.
func isParamOf(pass *analysis.Pass, stack []ast.Node, id *ast.Ident) bool {
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	for _, n := range stack {
		var ft *ast.FuncType
		var recv *ast.FieldList
		switch n := n.(type) {
		case *ast.FuncDecl:
			ft, recv = n.Type, n.Recv
		case *ast.FuncLit:
			ft = n.Type
		default:
			continue
		}
		lists := []*ast.FieldList{ft.Params, recv}
		for _, fl := range lists {
			if fl == nil {
				continue
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					if pass.TypesInfo.Defs[name] == v {
						return true
					}
				}
			}
		}
	}
	return false
}

func runCrossDomain(pass *analysis.Pass) (interface{}, error) {
	waivers := collectWaivers(pass, ownedMarker)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		call := n.(*ast.CallExpr)
		edge := edgeFor(pass, call)
		if edge == nil || len(call.Args) == 0 {
			return true
		}
		p := pass.Fset.Position(call.Pos())
		if isTestFile(pass, p.Filename) {
			return true
		}
		if reason, found := waivers.lookup(p.Filename, p.Line); found {
			if reason == "" {
				waivers.reportBare(pass, call)
			}
			return true
		}
		fnArg := call.Args[len(call.Args)-1]
		lit, ok := fnArg.(*ast.FuncLit)
		if !ok {
			if id, isIdent := fnArg.(*ast.Ident); isIdent && isParamOf(pass, stack, id) {
				return true // forwarding wrapper: checked at the caller's literal
			}
			pass.Reportf(fnArg.Pos(),
				"crossdomain: cannot prove the %s.%s callback is capture-free; pass a func literal (or annotate //lint:owned <reason>)",
				edge.recvName, edge.method)
			return true
		}
		outer := enclosingFunc(stack)
		if outer == nil {
			return true
		}
		// Destination-owned root: the variable the `to` argument is read
		// from, if any.
		var destOwned types.Object
		if edge.toArg < len(call.Args) {
			if root := rootIdent(call.Args[edge.toArg]); root != nil {
				destOwned = pass.TypesInfo.Uses[root]
			}
		}
		reportCaptures(pass, edge, outer, lit, destOwned)
		return true
	})
	waivers.reportStale(pass, "cross-domain send")
	return nil, nil
}

// reportCaptures flags every disallowed free variable of lit.
func reportCaptures(pass *analysis.Pass, edge *crossDomainEdge, outer ast.Node, lit *ast.FuncLit, destOwned types.Object) {
	seen := make(map[*types.Var]bool)
	var bad []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Free variable: declared inside the enclosing function but outside
		// the literal. Package-level state is a separate concern (it is
		// shared by construction and guarded by the Sim-layer rules).
		if v.Pos() < outer.Pos() || v.Pos() >= outer.End() ||
			(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			return true
		}
		seen[v] = true
		if v == destOwned {
			return true
		}
		if captureKind(pass, v, lit) != "" {
			bad = append(bad, v)
		}
		return true
	})
	sort.Slice(bad, func(i, j int) bool { return bad[i].Name() < bad[j].Name() })
	for _, v := range bad {
		pass.Reportf(lit.Pos(),
			"crossdomain: closure passed to %s.%s captures %q of type %s owned by the sending domain; cross-domain messages must carry data by value — copy it, target the destination's own state, or annotate //lint:owned <reason>",
			edge.recvName, edge.method, v.Name(), captureKind(pass, v, lit))
	}
}
