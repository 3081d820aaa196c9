package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SpanEnd returns the analyzer enforcing the tracing lifecycle contract:
// every span minted by StartRoot, StartRemote, StartChild or StartChildAt
// must reach End() (or EndAt) on all return paths, or the span leaks — its
// trace never flushes to the retention rings and /debug/trace/spans silently
// loses the request.
//
// The check is lexical, tuned to the repo's two legitimate shapes:
//
//   - a span ended locally must either be covered by a defer sp.End()
//     anywhere in the function, or an sp.End() call must appear between the
//     Start and every return statement that follows it;
//   - a span handed elsewhere to be ended later (stored in a struct field or
//     composite literal, passed as a call argument, returned, sent on a
//     channel, or aliased) is exempt — ownership moved with it.
//
// Discarding the result outright (a bare statement or an assignment to _) is
// always a leak. The trace package itself is exempt: it is the machinery
// under test, not a client of it.
func SpanEnd() *Analyzer {
	return &Analyzer{
		Name: "spanend",
		Doc:  "spans from StartRoot/StartRemote/StartChild/StartChildAt must reach End on every return path",
		Run:  runSpanEnd,
	}
}

// spanStartFuncs are the method names that mint a span the caller owns.
var spanStartFuncs = map[string]bool{
	"StartRoot":    true,
	"StartRemote":  true,
	"StartChild":   true,
	"StartChildAt": true,
}

func runSpanEnd(pass *Pass) {
	if pass.Name == "trace" {
		return // the tracer implementation mints and buffers spans freely
	}
	for _, fn := range pass.FuncDecls() {
		if fn.Body != nil {
			checkSpanLifecycles(pass, fn.Body)
		}
	}
}

// spanVar tracks one local variable holding a freshly minted span.
type spanVar struct {
	name    string
	pos     token.Pos // the Start call
	assign  ast.Stmt  // the minting statement when it sits directly in body.List
	escaped bool      // ownership moved: field, arg, return, channel, alias
	defersd bool      // covered by a defer <var>.End()
	ends    []token.Pos
}

// checkSpanLifecycles runs the lexical protocol over one function body,
// treating nested function literals as part of the same region (an End inside
// a deferred closure still counts at its lexical position).
func checkSpanLifecycles(pass *Pass, body *ast.BlockStmt) {
	vars := make(map[types.Object]*spanVar)
	var returns []token.Pos
	topLevel := make(map[ast.Stmt]bool, len(body.List))
	for _, s := range body.List {
		topLevel[s] = true
	}

	// Pass 1: find span-start assignments and outright discards.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isSpanStart(pass, call) {
				pass.Reportf("spanend", call.Pos(),
					"span from %s is discarded and never ended; hold it and End() it, or hand it off", spanStartName(call))
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isSpanStart(pass, call) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue // a field or index destination is a hand-off
				}
				if id.Name == "_" {
					pass.Reportf("spanend", call.Pos(),
						"span from %s is assigned to _ and never ended", spanStartName(call))
					continue
				}
				if obj := identObj(pass, id); obj != nil {
					sv := &spanVar{name: id.Name, pos: call.Pos()}
					if topLevel[ast.Stmt(n)] {
						sv.assign = n
					}
					vars[obj] = sv
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				call, ok := ast.Unparen(v).(*ast.CallExpr)
				if !ok || !isSpanStart(pass, call) || i >= len(n.Names) {
					continue
				}
				if obj := identObj(pass, n.Names[i]); obj != nil {
					vars[obj] = &spanVar{name: n.Names[i].Name, pos: call.Pos()}
				}
			}
		}
		return true
	})
	if len(vars) == 0 {
		return
	}

	// Pass 2: collect End calls, defers, returns and escapes per variable.
	tracked := func(e ast.Expr) *spanVar {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := identObj(pass, id); obj != nil {
			return vars[obj]
		}
		return nil
	}
	markEscapes := func(exprs []ast.Expr) {
		for _, e := range exprs {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			if v := tracked(e); v != nil {
				v.escaped = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if v := spanEndCall(pass, n.Call, tracked); v != nil {
				v.defersd = true
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				if v := spanEndCall(pass, call, tracked); v != nil {
					v.ends = append(v.ends, call.Pos())
				}
			}
		case *ast.CallExpr:
			markEscapes(n.Args)
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
			markEscapes(n.Results)
		case *ast.AssignStmt:
			markEscapes(n.Rhs) // aliasing or storing into a field/map slot
		case *ast.CompositeLit:
			markEscapes(n.Elts)
		case *ast.SendStmt:
			markEscapes([]ast.Expr{n.Value})
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markEscapes([]ast.Expr{n.X})
			}
		}
		return true
	})

	// Pass 3: judge each span that stayed local.
	for _, v := range vars {
		if v.escaped || v.defersd {
			continue
		}
		if leakPos, leaks := spanLeaks(v, returns); leaks {
			pass.ReportFixf("spanend", leakPos, deferEndFix(pass, v),
				"span %s can leave the function without End(); defer %s.End() after the Start, or End it before each return",
				v.name, v.name)
		}
	}
}

// deferEndFix builds the autofix inserting `defer <name>.End()` on the line
// after the minting statement. Only offered when the mint sits directly in the
// function body (inside a loop or branch a defer would pile up or leak scope).
func deferEndFix(pass *Pass, v *spanVar) *SuggestedFix {
	if v.assign == nil {
		return nil
	}
	pos := pass.Fset.Position(v.assign.Pos())
	end := pass.Fset.Position(v.assign.End())
	indent := strings.Repeat("\t", pos.Column-1)
	return &SuggestedFix{
		Message: "defer the End right after the Start",
		Edits: []TextEdit{{
			File:    end.Filename,
			Offset:  end.Offset,
			End:     end.Offset,
			NewText: "\n" + indent + "defer " + v.name + ".End()",
		}},
	}
}

// spanLeaks reports whether v misses an End on some path: a return after the
// Start with no End between them, or — when no return follows — no End at
// all after the Start.
func spanLeaks(v *spanVar, returns []token.Pos) (token.Pos, bool) {
	endBetween := func(lo, hi token.Pos) bool {
		for _, e := range v.ends {
			if e > lo && (hi == token.NoPos || e < hi) {
				return true
			}
		}
		return false
	}
	sawReturn := false
	for _, r := range returns {
		if r <= v.pos {
			continue
		}
		sawReturn = true
		if !endBetween(v.pos, r) {
			return v.pos, true
		}
	}
	if !sawReturn && !endBetween(v.pos, token.NoPos) {
		return v.pos, true
	}
	return token.NoPos, false
}

// isSpanStart reports whether call is a Start* method returning *trace.Span.
func isSpanStart(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !spanStartFuncs[sel.Sel.Name] {
		return false
	}
	tv, ok := pass.Info.Types[call]
	if !ok {
		return false
	}
	return namedTypeIn(tv.Type, "trace", "Span")
}

// spanStartName renders the Start call for diagnostics ("tr.StartRoot").
func spanStartName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return exprString(sel.X) + "." + sel.Sel.Name
	}
	return exprString(call.Fun)
}

// spanEndCall returns the tracked variable when call is <var>.End() or
// <var>.EndAt(t).
func spanEndCall(pass *Pass, call *ast.CallExpr, tracked func(ast.Expr) *spanVar) *spanVar {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !(sel.Sel.Name == "End" && len(call.Args) == 0 || sel.Sel.Name == "EndAt" && len(call.Args) == 1) {
		return nil
	}
	return tracked(sel.X)
}

// identObj resolves an identifier to its object for both := and = forms.
func identObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}
