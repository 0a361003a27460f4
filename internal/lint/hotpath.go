package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// HotPath checks functions annotated with a //molecule:hotpath directive —
// the paths whose 0 allocs/op the microbenchmarks pin (the nIPC FIFO write,
// the warm invoke, the obs fast paths). Inside such a function it flags the
// constructs that quietly reintroduce allocations:
//
//   - fmt.Sprintf / fmt.Errorf / fmt.Sprint / fmt.Sprintln and runtime
//     string concatenation, unless they sit inside a return statement —
//     building an error on the bail-out exit is fine, the pinned path is
//     the success path;
//   - closures that capture enclosing variables (the capture forces a heap
//     allocation per call);
//   - Tracef calls not guarded by a tracing/nil check: Tracef itself checks
//     the env flag, but its variadic arguments are boxed at the call site
//     before the check runs;
//   - a non-pointer struct value converted to an interface — passed as an
//     interface argument, assigned or sent to an interface, or set as an
//     interface field or element of a composite literal — which boxes a
//     heap copy of the struct (resumeMsg{val: recvResult[T]{...}} is the
//     shape: hand over a pointer instead). Zero-size structs box without
//     allocating and are exempt, as are return statements and panic
//     arguments, the bail-out exits.
//
// The check is syntactic and per-function; callees are not followed. It
// keeps the shape of the pinned paths honest between benchmark runs — the
// alloc-counting benchmarks remain the ground truth.
var HotPath = &analysis.Analyzer{
	Name:     "hotpath",
	Doc:      "flag allocation-introducing constructs (fmt, string concat, capturing closures, unguarded Tracef, struct values boxed into interfaces) in //molecule:hotpath functions",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runHotPath,
}

// hotPathMarker is the directive that opts a function into the check.
const hotPathMarker = "//molecule:hotpath"

// fmtAllocFuncs are the fmt formatters that always allocate their result.
var fmtAllocFuncs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
	"Errorf":   true,
}

func isHotPath(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if c.Text == hotPathMarker || strings.HasPrefix(c.Text, hotPathMarker+" ") {
			return true
		}
	}
	return false
}

// guardCond reports whether an if condition looks like a tracing or
// attachment guard: it mentions a tracing flag, calls Tracing()/Enabled(),
// or nil-checks something.
func guardCond(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "trac") {
				found = true
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "Tracing" || n.Sel.Name == "Enabled" {
				found = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.NEQ || n.Op == token.EQL {
				for _, e := range []ast.Expr{n.X, n.Y} {
					if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// stackCtx derives, from an inspector stack, the enclosing hotpath function
// (nil if none) and whether the node sits inside a return statement or a
// guarded if within it.
func stackCtx(stack []ast.Node) (decl *ast.FuncDecl, inReturn, guarded bool) {
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if isHotPath(n) {
				decl = n
			}
		case *ast.ReturnStmt:
			if decl != nil {
				inReturn = true
			}
		case *ast.IfStmt:
			if decl != nil && guardCond(n.Cond) {
				guarded = true
			}
		}
	}
	return decl, inReturn, guarded
}

// auditHotPathDirectives reports //molecule:hotpath directives that are not
// the doc comment of a function declaration: the function was renamed,
// deleted, or the comment drifted into a body, so the directive opts
// nothing into the check while still reading as if an invariant holds.
func auditHotPathDirectives(pass *analysis.Pass) {
	for _, f := range pass.Files {
		attached := make(map[*ast.Comment]bool)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				for _, c := range fd.Doc.List {
					attached[c] = true
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text != hotPathMarker && !strings.HasPrefix(c.Text, hotPathMarker+" ") {
					continue
				}
				if attached[c] {
					continue
				}
				if isTestFile(pass, pass.Fset.Position(c.Pos()).Filename) {
					continue
				}
				pass.Reportf(c.Pos(),
					"hotpath: stale %s directive: not attached to a function declaration — the function it pinned is gone; delete or re-attach it",
					hotPathMarker)
			}
		}
	}
}

func runHotPath(pass *analysis.Pass) (interface{}, error) {
	auditHotPathDirectives(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodeTypes := []ast.Node{
		(*ast.CallExpr)(nil),
		(*ast.BinaryExpr)(nil),
		(*ast.FuncLit)(nil),
		(*ast.CompositeLit)(nil),
		(*ast.AssignStmt)(nil),
		(*ast.ValueSpec)(nil),
		(*ast.SendStmt)(nil),
	}
	insp.WithStack(nodeTypes, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		decl, inReturn, guarded := stackCtx(stack[:len(stack)-1])
		if decl == nil {
			return true
		}
		if isTestFile(pass, pass.Fset.Position(n.Pos()).Filename) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, decl, n, inReturn, guarded)
		case *ast.BinaryExpr:
			checkHotConcat(pass, decl, n, stack, inReturn)
		case *ast.FuncLit:
			checkHotClosure(pass, decl, n)
		}
		if !inReturn {
			checkHotBoxing(pass, decl, n)
		}
		return true
	})
	return nil, nil
}

func checkHotCall(pass *analysis.Pass, decl *ast.FuncDecl, call *ast.CallExpr, inReturn, guarded bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
		fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtAllocFuncs[fn.Name()] {
		if inReturn {
			return // error construction on a bail-out exit
		}
		pass.Reportf(call.Pos(),
			"hotpath: fmt.%s allocates on the success path of //molecule:hotpath %s; precompute it, or move it into the error return",
			fn.Name(), decl.Name.Name)
		return
	}
	if sel.Sel.Name == "Tracef" && !guarded {
		pass.Reportf(call.Pos(),
			"hotpath: unguarded Tracef in //molecule:hotpath %s boxes its arguments even when tracing is off; wrap it in an `if tracing { ... }` guard",
			decl.Name.Name)
	}
}

func checkHotConcat(pass *analysis.Pass, decl *ast.FuncDecl, bin *ast.BinaryExpr, stack []ast.Node, inReturn bool) {
	if bin.Op != token.ADD {
		return
	}
	tv, ok := pass.TypesInfo.Types[bin]
	if !ok || tv.Value != nil { // constant-folded concatenation is free
		return
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return
	}
	if inReturn {
		return
	}
	// Report only the topmost + of a chain: a+b+c parses as (a+b)+c.
	if len(stack) >= 2 {
		if parent, ok := stack[len(stack)-2].(*ast.BinaryExpr); ok && parent.Op == token.ADD {
			if ptv, ok := pass.TypesInfo.Types[parent]; ok && ptv.Value == nil {
				if pb, ok := ptv.Type.Underlying().(*types.Basic); ok && pb.Info()&types.IsString != 0 {
					return
				}
			}
		}
	}
	pass.Reportf(bin.Pos(),
		"hotpath: string concatenation allocates in //molecule:hotpath %s; precompute the string outside the hot path",
		decl.Name.Name)
}

func checkHotClosure(pass *analysis.Pass, decl *ast.FuncDecl, lit *ast.FuncLit) {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared inside the enclosing function but outside the
		// literal itself.
		if v.Pos() >= decl.Pos() && v.Pos() < decl.End() &&
			(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			captured = v.Name()
		}
		return true
	})
	if captured != "" {
		pass.Reportf(lit.Pos(),
			"hotpath: closure captures %q in //molecule:hotpath %s; a capturing closure heap-allocates per call — hoist it or pass state explicitly",
			captured, decl.Name.Name)
	}
}

// checkHotBoxing reports the implicit and explicit conversions of n that
// box a non-pointer struct value into an interface.
func checkHotBoxing(pass *analysis.Pass, decl *ast.FuncDecl, n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		tv, ok := pass.TypesInfo.Types[n.Fun]
		if !ok {
			return
		}
		if tv.IsType() { // explicit conversion, e.g. any(v)
			if len(n.Args) == 1 {
				reportBoxing(pass, decl, n.Args[0], tv.Type)
			}
			return
		}
		if b, ok := pass.TypesInfo.Uses[calleeIdent(n.Fun)].(*types.Builtin); ok && b.Name() == "panic" {
			return // a panic is a bail-out exit
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		params := sig.Params()
		for i, arg := range n.Args {
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				last := params.At(params.Len() - 1).Type()
				if n.Ellipsis.IsValid() {
					reportBoxing(pass, decl, arg, last)
				} else if sl, ok := last.Underlying().(*types.Slice); ok {
					reportBoxing(pass, decl, arg, sl.Elem())
				}
			case i < params.Len():
				reportBoxing(pass, decl, arg, params.At(i).Type())
			}
		}
	case *ast.CompositeLit:
		tv, ok := pass.TypesInfo.Types[n]
		if !ok {
			return
		}
		for i, elt := range n.Elts {
			key, val := ast.Expr(nil), elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				key, val = kv.Key, kv.Value
			}
			switch u := tv.Type.Underlying().(type) {
			case *types.Struct:
				if id, ok := key.(*ast.Ident); ok {
					if f, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
						reportBoxing(pass, decl, val, f.Type())
					}
				} else if key == nil && i < u.NumFields() {
					reportBoxing(pass, decl, val, u.Field(i).Type())
				}
			case *types.Slice:
				reportBoxing(pass, decl, val, u.Elem())
			case *types.Array:
				reportBoxing(pass, decl, val, u.Elem())
			case *types.Map:
				if key != nil {
					reportBoxing(pass, decl, key, u.Key())
				}
				reportBoxing(pass, decl, val, u.Elem())
			}
		}
	case *ast.AssignStmt:
		if n.Tok != token.ASSIGN || len(n.Lhs) != len(n.Rhs) {
			return
		}
		for i, lhs := range n.Lhs {
			if tv, ok := pass.TypesInfo.Types[lhs]; ok {
				reportBoxing(pass, decl, n.Rhs[i], tv.Type)
			}
		}
	case *ast.ValueSpec:
		if n.Type == nil || len(n.Names) != len(n.Values) {
			return
		}
		if tv, ok := pass.TypesInfo.Types[n.Type]; ok {
			for _, v := range n.Values {
				reportBoxing(pass, decl, v, tv.Type)
			}
		}
	case *ast.SendStmt:
		if tv, ok := pass.TypesInfo.Types[n.Chan]; ok {
			if ch, ok := tv.Type.Underlying().(*types.Chan); ok {
				reportBoxing(pass, decl, n.Value, ch.Elem())
			}
		}
	}
}

// calleeIdent returns the identifier naming a call's function, or nil.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}

// reportBoxing reports expr if converting it to target boxes a struct.
func reportBoxing(pass *analysis.Pass, decl *ast.FuncDecl, expr ast.Expr, target types.Type) {
	if _, ok := target.(*types.TypeParam); ok || !types.IsInterface(target) {
		return
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || types.IsInterface(tv.Type) {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok || zeroSize(st) {
		return
	}
	pass.Reportf(expr.Pos(),
		"hotpath: struct value of type %s is boxed into an interface in //molecule:hotpath %s, a heap allocation per call; hand over a pointer (pooled if need be) instead",
		types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), decl.Name.Name)
}

// zeroSize reports whether t occupies no memory: a struct or array whose
// every field or element is itself zero-size.
func zeroSize(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !zeroSize(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return u.Len() == 0 || zeroSize(u.Elem())
	}
	return false
}
