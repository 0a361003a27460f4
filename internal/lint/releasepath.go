package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

// ReleasePath walks the control-flow graph from every acquire of a
// refcounted or pooled resource (the pairings in ReleaseTable) and checks
// the discipline the PR 8 InvokeChain leak and the PR 9 AddressSpace
// double-release both violated:
//
//   - every path from the acquire must reach a release (or transfer
//     ownership: return the resource, store it into a composite literal,
//     or pass the acquire result directly to another call);
//   - a resource stored into a pre-existing container (insts[i] = inst)
//     must have its cleanup defer registered BEFORE the store — the
//     defer-after-acquire-loop shape leaks every stored instance when a
//     later iteration fails;
//   - no path may release the same resource twice.
//
// The walk prunes the acquire's own error branch (`if err != nil` after the
// acquire: nothing was acquired there) until the error variable is
// reassigned, and treats a class-matching `defer` as covering every
// subsequent exit. Closures capturing the resource, aliases, and
// address-taking are conservatively treated as ownership transfers — the
// analyzer stops tracking rather than guess.
//
// Sites where the pairing is genuinely non-local (a density experiment that
// holds instances for the run's lifetime, a fanout released in a later
// batch) carry a //lint:released <reason> waiver on the acquire line.
var ReleasePath = &analysis.Analyzer{
	Name:     "releasepath",
	Doc:      "acquired refcounted/pooled resources must be released on every path, with the defer registered before fallible steps",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      runReleasePath,
}

// methodRef resolves a call to ("pkgpath.Type", method). ok is false for
// non-method calls.
func methodRef(pass *analysis.Pass, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	named := namedRecv(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name(), fn.Name(), true
}

// acquirePair returns the table entry a call acquires under, or nil.
func acquirePair(pass *analysis.Pass, call *ast.CallExpr) *ReleasePair {
	recv, method, ok := methodRef(pass, call)
	if !ok {
		return nil
	}
	for i := range ReleaseTable {
		p := &ReleaseTable[i]
		if p.Acquire.Recv == recv && p.Acquire.Method == method {
			return p
		}
	}
	return nil
}

// releaseRefFor returns the matching release entry of pair for a call, or
// nil.
func releaseRefFor(pass *analysis.Pass, pair *ReleasePair, call *ast.CallExpr) *releaseRef {
	recv, method, ok := methodRef(pass, call)
	if !ok {
		return nil
	}
	for i := range pair.Releases {
		r := &pair.Releases[i]
		if r.Recv == recv && r.Method == method {
			return r
		}
	}
	return nil
}

// identVar resolves an identifier to the variable it uses or defines.
func identVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// rpEvent is one thing the path walk reacts to, in block order.
type rpKind uint8

const (
	rpAcquire  rpKind = iota // the tracked acquire itself (re-entry = rebind, stop)
	rpRelease                // release of the tracked resource
	rpDefer                  // defer covering this resource class
	rpStore                  // tracked var stored into a pre-existing container
	rpTransfer               // ownership moved: alias, composite literal, &v, closure capture
	rpErrKill                // the acquire's error variable was reassigned
	rpReturn                 // return statement
)

type rpEvent struct {
	kind     rpKind
	pos      token.Pos
	mentions bool // rpReturn: the results mention the tracked var
}

// rpSite is one tracked acquire within one function.
type rpSite struct {
	pair   *ReleasePair
	call   *ast.CallExpr
	bind   ast.Stmt // statement binding the result (nil for pin-style)
	resVar *types.Var
	errVar *types.Var
}

// collectEvents extracts the site's events from one CFG block node.
// Closure bodies are not descended into except to look for the tracked
// variable (capture = transfer); defers are classified whole.
func (s *rpSite) collectEvents(pass *analysis.Pass, n ast.Node, out *[]rpEvent) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		if s.deferCovers(pass, n) {
			*out = append(*out, rpEvent{kind: rpDefer, pos: n.Pos()})
		} else if s.mentionsVar(pass, n.Call) {
			*out = append(*out, rpEvent{kind: rpTransfer, pos: n.Pos()})
		}
		return
	case *ast.ReturnStmt:
		ev := rpEvent{kind: rpReturn, pos: n.Pos()}
		for _, r := range n.Results {
			if s.mentionsVar(pass, r) {
				ev.mentions = true
			}
		}
		*out = append(*out, ev)
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt, *ast.ReturnStmt:
			s.collectEvents(pass, m, out)
			return false
		case *ast.FuncLit:
			// A closure capturing the resource escapes our tracking.
			if s.mentionsVar(pass, m.Body) {
				*out = append(*out, rpEvent{kind: rpTransfer, pos: m.Pos()})
			}
			return false
		case *ast.CallExpr:
			if m == s.call {
				*out = append(*out, rpEvent{kind: rpAcquire, pos: m.Pos()})
				return false
			}
			if ref := releaseRefFor(pass, s.pair, m); ref != nil && s.releaseTarget(pass, m, ref) {
				*out = append(*out, rpEvent{kind: rpRelease, pos: m.Pos()})
				return false
			}
		case *ast.AssignStmt:
			if m == s.bind {
				*out = append(*out, rpEvent{kind: rpAcquire, pos: m.Pos()})
				return false
			}
			s.collectAssign(pass, m, out)
			return false
		case *ast.UnaryExpr:
			if m.Op == token.AND && identVar(pass, ast.Unparen(m.X)) == s.resVar {
				*out = append(*out, rpEvent{kind: rpTransfer, pos: m.Pos()})
				return false
			}
		case *ast.CompositeLit:
			if s.compositeStoresVar(pass, m) {
				*out = append(*out, rpEvent{kind: rpTransfer, pos: m.Pos()})
				return false
			}
		}
		return true
	})
}

// compositeStoresVar reports whether a composite literal stores the tracked
// variable itself (or its address) as an element — ownership moving into
// the new value. Expressions merely derived from it (inst.node.pu.ID) are
// reads, not transfers.
func (s *rpSite) compositeStoresVar(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	for _, elt := range lit.Elts {
		e := elt
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			e = kv.Value
		}
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		if identVar(pass, e) == s.resVar {
			return true
		}
		if nested, ok := e.(*ast.CompositeLit); ok && s.compositeStoresVar(pass, nested) {
			return true
		}
	}
	return false
}

// collectAssign classifies an assignment's events: stores of the tracked
// var into containers, aliases, and error-variable reassignment — then
// descends into the RHS for nested calls.
func (s *rpSite) collectAssign(pass *analysis.Pass, m *ast.AssignStmt, out *[]rpEvent) {
	for i, rhs := range m.Rhs {
		// Nested events (a release call in the RHS, a composite literal).
		ast.Inspect(rhs, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if n == s.call {
					*out = append(*out, rpEvent{kind: rpAcquire, pos: n.Pos()})
					return false
				}
				if ref := releaseRefFor(pass, s.pair, n); ref != nil && s.releaseTarget(pass, n, ref) {
					*out = append(*out, rpEvent{kind: rpRelease, pos: n.Pos()})
					return false
				}
			case *ast.FuncLit:
				if s.mentionsVar(pass, n.Body) {
					*out = append(*out, rpEvent{kind: rpTransfer, pos: n.Pos()})
				}
				return false
			case *ast.CompositeLit:
				if s.compositeStoresVar(pass, n) {
					*out = append(*out, rpEvent{kind: rpTransfer, pos: n.Pos()})
				}
				return false
			}
			return true
		})
		if identVar(pass, rhs) == s.resVar && i < len(m.Lhs) {
			switch m.Lhs[i].(type) {
			case *ast.Ident:
				*out = append(*out, rpEvent{kind: rpTransfer, pos: m.Pos()}) // alias
			case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
				*out = append(*out, rpEvent{kind: rpStore, pos: m.Pos()})
			}
		}
	}
	if s.errVar != nil {
		for _, lhs := range m.Lhs {
			if identVar(pass, lhs) == s.errVar {
				*out = append(*out, rpEvent{kind: rpErrKill, pos: m.Pos()})
			}
		}
	}
}

// releaseTarget reports whether a release-ref call disposes the tracked var.
func (s *rpSite) releaseTarget(pass *analysis.Pass, call *ast.CallExpr, ref *releaseRef) bool {
	if ref.Arg >= 0 {
		return ref.Arg < len(call.Args) && identVar(pass, call.Args[ref.Arg]) == s.resVar
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && identVar(pass, sel.X) == s.resVar
}

// deferCovers reports whether a defer releases this resource class: a
// direct deferred release call, or a deferred closure whose body contains
// one (the InvokeChain cleanup-loop shape — the loop variable differs from
// the tracked var, so the match is by class, not identity).
func (s *rpSite) deferCovers(pass *analysis.Pass, d *ast.DeferStmt) bool {
	if releaseRefFor(pass, s.pair, d.Call) != nil {
		return true
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	covers := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && releaseRefFor(pass, s.pair, call) != nil {
			covers = true
		}
		return !covers
	})
	return covers
}

// mentionsVar reports whether the tracked variable appears anywhere in n.
func (s *rpSite) mentionsVar(pass *analysis.Pass, n ast.Node) bool {
	if s.resVar == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == s.resVar {
			found = true
		}
		return !found
	})
	return found
}

// panicky reports whether a no-successor block that lacks a return ends the
// program rather than the function: panic, Fatal*, Exit. Leaks are not
// reported on crash paths.
func panicky(pass *analysis.Pass, b *cfg.Block) bool {
	for _, n := range b.Nodes {
		stop := false
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "panic" {
					stop = true
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if strings.HasPrefix(name, "Fatal") || name == "Exit" || name == "Goexit" {
					stop = true
				}
			}
			return !stop
		})
		if stop {
			return true
		}
	}
	return false
}

// rpState is one DFS configuration of the path walk.
type rpState struct {
	block   int32
	ev      int
	held    bool
	armed   bool
	errLive bool
}

// maxStates bounds the walk per acquire site; real functions stay far
// below it, and hitting the cap silently under-reports rather than hangs.
const maxStates = 20000

// checkSite walks every path from one acquire site.
func checkSite(pass *analysis.Pass, g *cfg.CFG, site *rpSite, report func(pos token.Pos, format string, args ...interface{})) {
	// Per-block event lists for this site.
	events := make([][]rpEvent, len(g.Blocks))
	start := rpState{block: -1}
	for bi, b := range g.Blocks {
		for _, n := range b.Nodes {
			site.collectEvents(pass, n, &events[bi])
		}
		for ei, ev := range events[bi] {
			if ev.kind == rpAcquire && ev.pos == site.acquirePos() {
				start = rpState{block: int32(bi), ev: ei + 1, held: true, errLive: site.errVar != nil}
			}
		}
	}
	if start.block < 0 {
		return // acquire in dead code or a position the CFG does not carry
	}
	// A class defer lexically before the acquire is treated as already
	// armed: the straight-line prefix registered the cleanup first (the
	// fixed InvokeChain shape).
	for _, evs := range events {
		for _, ev := range evs {
			if ev.kind == rpDefer && ev.pos < site.acquirePos() {
				start.armed = true
			}
		}
	}
	acqPosn := pass.Fset.Position(site.acquirePos())

	visited := map[rpState]bool{}
	stack := []rpState{start}
	for len(stack) > 0 && len(visited) < maxStates {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[st] {
			continue
		}
		visited[st] = true
		b := g.Blocks[st.block]
		evs := events[st.block]
		terminal := false
		for i := st.ev; i < len(evs) && !terminal; i++ {
			ev := evs[i]
			switch ev.kind {
			case rpAcquire:
				terminal = true // back edge re-binds the variable
			case rpRelease:
				if !st.held {
					report(ev.pos,
						"releasepath: %s %s released twice on a path from the acquire at %s (the evict-vs-fork-error double-release shape); make exactly one owner responsible",
						site.pair.Class, site.varName(), acqPosn)
					terminal = true
					break
				}
				st.held = false
			case rpDefer:
				st.armed = true
			case rpStore:
				if st.held && !st.armed {
					report(ev.pos,
						"releasepath: %s %s stored into a container before its cleanup defer is registered — a later acquire error leaks every stored instance (the InvokeChain defer-after-acquire shape); register the defer before the loop",
						site.pair.Class, site.varName())
				}
				terminal = true // ownership now lives in the container
			case rpTransfer:
				terminal = true
			case rpErrKill:
				st.errLive = false
			case rpReturn:
				if st.held && !st.armed && !ev.mentions {
					report(site.acquirePos(),
						"releasepath: %s %s acquired here can reach the return at %s without being released; release on every path or register the release defer before the first fallible step",
						site.pair.Class, site.varName(), pass.Fset.Position(ev.pos))
				}
				terminal = true
			}
		}
		if terminal {
			continue
		}
		if len(b.Succs) == 0 {
			if st.held && !st.armed && !panicky(pass, b) {
				report(site.acquirePos(),
					"releasepath: %s %s acquired here can reach the end of the function without being released; release on every path or register the release defer before the first fallible step",
					site.pair.Class, site.varName())
			}
			continue
		}
		skip := -1
		if st.errLive && len(b.Succs) == 2 && len(b.Nodes) > 0 {
			if cond, ok := b.Nodes[len(b.Nodes)-1].(ast.Expr); ok {
				if bin, ok := ast.Unparen(cond).(*ast.BinaryExpr); ok {
					if errNilCompare(pass, bin, site.errVar) {
						if bin.Op == token.NEQ {
							skip = 0 // err != nil: nothing was acquired on the true branch
						} else if bin.Op == token.EQL {
							skip = 1
						}
					}
				}
			}
		}
		for si, succ := range b.Succs {
			if si == skip {
				continue
			}
			stack = append(stack, rpState{block: succ.Index, ev: 0, held: st.held, armed: st.armed, errLive: st.errLive})
		}
	}
}

// errNilCompare matches `errVar ==/!= nil` in either operand order.
func errNilCompare(pass *analysis.Pass, bin *ast.BinaryExpr, errVar *types.Var) bool {
	if errVar == nil || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	return (identVar(pass, x) == errVar && isNil(y)) || (identVar(pass, y) == errVar && isNil(x))
}

func (s *rpSite) acquirePos() token.Pos {
	if s.bind != nil {
		return s.bind.Pos()
	}
	return s.call.Pos()
}

func (s *rpSite) varName() string {
	if s.resVar != nil {
		return "\"" + s.resVar.Name() + "\""
	}
	return "result"
}

// innermostFuncCFG finds the function (decl or literal) immediately
// enclosing the call on the inspector stack and returns its CFG.
func innermostFuncCFG(cfgs *ctrlflow.CFGs, stack []ast.Node) *cfg.CFG {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			if f.Body == nil {
				return nil
			}
			return cfgs.FuncDecl(f)
		case *ast.FuncLit:
			return cfgs.FuncLit(f)
		}
	}
	return nil
}

func runReleasePath(pass *analysis.Pass) (interface{}, error) {
	waivers := collectWaivers(pass, releasedMarker)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	reported := map[string]bool{}
	report := func(pos token.Pos, format string, args ...interface{}) {
		key := pass.Fset.Position(pos).String() + "|" + format
		if reported[key] {
			return
		}
		reported[key] = true
		pass.Reportf(pos, format, args...)
	}
	insp.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		call := n.(*ast.CallExpr)
		pair := acquirePair(pass, call)
		if pair == nil {
			return true
		}
		posn := pass.Fset.Position(call.Pos())
		if isTestFile(pass, posn.Filename) {
			return true
		}
		if reason, found := waivers.lookup(posn.Filename, posn.Line); found {
			if reason == "" {
				waivers.reportBare(pass, call)
			}
			return true
		}
		site := classifyAcquire(pass, pair, call, stack, report)
		if site == nil {
			return true
		}
		g := innermostFuncCFG(cfgs, stack[:len(stack)-1])
		if g == nil {
			return true
		}
		checkSite(pass, g, site, report)
		return true
	})
	waivers.reportStale(pass, "tracked acquire")
	return nil, nil
}

// classifyAcquire determines how the acquire's resource is bound, reporting
// binding-level violations (discarded result) directly. It returns nil when
// the site needs no path walk: ownership transferred at the call itself, or
// nothing trackable.
func classifyAcquire(pass *analysis.Pass, pair *ReleasePair, call *ast.CallExpr, stack []ast.Node, report func(pos token.Pos, format string, args ...interface{})) *rpSite {
	parent := ast.Node(nil)
	if len(stack) >= 2 {
		parent = stack[len(stack)-2]
	}
	if pair.Result < 0 {
		// Pin-style: the resource is an argument of the call.
		if pair.PinArg >= len(call.Args) {
			return nil
		}
		v := identVar(pass, call.Args[pair.PinArg])
		if v == nil {
			report(call.Pos(),
				"releasepath: %s pinned via a non-variable expression; pin a named variable so the release pairing is checkable",
				pair.Class)
			return nil
		}
		return &rpSite{pair: pair, call: call, resVar: v}
	}
	assign, ok := parent.(*ast.AssignStmt)
	if !ok {
		if _, isExpr := parent.(*ast.ExprStmt); isExpr {
			report(call.Pos(),
				"releasepath: %s result of %s.%s discarded — the acquired resource can never be released",
				pair.Class, pair.Acquire.Recv, pair.Acquire.Method)
		}
		// Direct use as an argument, composite-literal value, or return
		// expression: ownership transfers with the value.
		return nil
	}
	if len(assign.Rhs) != 1 || assign.Rhs[0] != call || pair.Result >= len(assign.Lhs) {
		return nil
	}
	lhs := assign.Lhs[pair.Result]
	if id, isIdent := lhs.(*ast.Ident); isIdent && id.Name == "_" {
		report(call.Pos(),
			"releasepath: %s result of %s.%s discarded — the acquired resource can never be released",
			pair.Class, pair.Acquire.Recv, pair.Acquire.Method)
		return nil
	}
	v := identVar(pass, lhs)
	if v == nil {
		return nil // bound straight into a container: tracked no further
	}
	site := &rpSite{pair: pair, call: call, bind: assign, resVar: v}
	// The acquire's own error result, when bound, prunes the error branch.
	if sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); ok && sig.Results().Len() == len(assign.Lhs) {
		last := sig.Results().Len() - 1
		if last >= 0 && types.Identical(sig.Results().At(last).Type(), errorType) && last != pair.Result {
			site.errVar = identVar(pass, assign.Lhs[last])
		}
	}
	return site
}
