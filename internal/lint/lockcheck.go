package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// LockCheck returns the analyzer for the repo's mutex discipline. It walks
// each function once, tracking which sync.Mutex/sync.RWMutex locks are held,
// and enforces on that walk:
//
//   - guarded access: a struct field whose comment contains "guarded by <mu>"
//     may only be read while <mu> (or its read half) is held on every path
//     from function entry, and only written while the write lock is held;
//   - lock order: acquiring k while h may be held records the edge h→k over
//     type-level keys ("sthist/internal/httpapi.entry.qmu" — instances of the
//     same field share a key). Calls made while holding locks contribute the
//     callee's transitive acquisitions, computed to a fixpoint within each
//     package and carried across packages in dependency order. Finish
//     reports every edge on a cycle of the whole-program graph, so the
//     qmu/jmu/wmu nesting is checked, not just documented;
//   - self-deadlock: acquiring a mutex the function may already hold;
//   - unmapped mutexes: a mutex field of a package-level struct that no
//     guarded-by annotation names is an unenforced discipline. Locks that
//     protect a code section rather than fields may say "guards <what>" in
//     their own comment instead.
//
// Where paths meet (after a branch, loop or switch) guarded access and lock
// order need different joins: a lock stays in the state if any path holds
// it, so a lock released on only one branch still orders later
// acquisitions, but it keeps its mode only if every path holds it, so a
// guarded access after that branch is flagged. Paths that return do not
// rejoin, and a deferred unlock keeps the lock held until return. Lock
// owners are matched to field accesses by the textual form of the base
// expression (e.mu.Lock() guards e.hist), which is exact for the
// receiver-plus-locals style this repo uses. Only sync mutexes count: a Lock
// method on any other type is an ordinary call and protects nothing.
//
// Function literals run with the state at their creation point when deferred
// (they run before the deferred Unlock) or invoked in place, and with nothing
// held when started with go or stored for later; only the former count
// toward the enclosing function's acquisitions.
//
// Escapes from the guarded-access rule, in decreasing order of preference:
//
//   - functions whose name ends in "Locked" assert that the caller holds the
//     lock and are exempt (the repo-wide convention);
//   - accesses through a variable constructed in the same function (x :=
//     &T{...}; x.field = ...) are exempt — unshared until published;
//   - a //sthlint:ignore lockcheck <reason> directive.
func LockCheck() *Analyzer {
	g := &lockGraph{
		acquires: make(map[string]map[string]bool),
		edges:    make(map[[2]string]lockEdge),
	}
	return &Analyzer{
		Name:   "lockcheck",
		Doc:    `fields annotated "guarded by <mu>" must only be accessed with <mu> held; lock acquisitions must be acyclic and every mutex must name what it guards`,
		Run:    g.run,
		Finish: g.finish,
	}
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// lockMode is a bitmask of what a lock held on every path permits.
type lockMode uint8

const (
	lockRead  lockMode = 1 << iota // RLock held: reads allowed
	lockWrite                      // Lock held: reads and writes allowed
)

// heldLock is one lock that some path may hold.
type heldLock struct {
	mode lockMode // what every path grants; 0 when only some paths hold it
	key  string   // type-level key for the order graph ("" for locals)
}

// lockState maps mutex instances ("base.guard", the text of the mutex
// expression) to the locks that may be held.
type lockState map[string]heldLock

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// join merges the states of two paths that meet: may-hold for ordering (a
// lock either path holds stays), must-hold for access (the mode is what
// both paths grant).
func join(a, b lockState) lockState {
	out := make(lockState, len(a)+len(b))
	for k, h := range a {
		h.mode &= b[k].mode
		out[k] = h
	}
	for k, h := range b {
		if _, ok := a[k]; !ok {
			h.mode = 0
			out[k] = h
		}
	}
	return out
}

// lockGraph accumulates the whole-program acquisition graph across packages.
type lockGraph struct {
	acquires map[string]map[string]bool // function symbol → lock keys it (transitively) acquires
	edges    map[[2]string]lockEdge     // (held, acquired) → first witness
}

type lockEdge struct {
	pos token.Position
	fn  string
}

// pendingCall defers call-summary edge expansion until the package
// fixpoint has run.
type pendingCall struct {
	held []string
	sym  string
	pos  token.Pos
	fn   string
}

func (g *lockGraph) run(pass *Pass) {
	guards := checkStructs(pass)

	summary := make(map[string]map[string]bool) // symbol → acquired lock keys
	calls := make(map[string][]string)          // symbol → callee symbols
	var pending []pendingCall
	for _, fd := range pass.FuncDecls() {
		if fd.Body == nil {
			continue
		}
		w := &lockWalker{pass: pass, graph: g, fn: fd.Name.Name, direct: make(map[string]bool)}
		if len(guards) > 0 && !strings.HasSuffix(fd.Name.Name, "Locked") {
			// A *Locked function asserts that its caller holds the lock, so
			// only its orderings are checked.
			w.guards, w.exempt = guards, constructedLocals(pass, fd)
		}
		w.stmts(fd.Body.List, make(lockState))
		if sym := SymbolOf(pass.Info.Defs[fd.Name]); sym != "" {
			summary[sym] = w.direct
			calls[sym] = w.callees
		}
		pending = append(pending, w.pending...)
	}

	// Transitive closure within the package; cross-package callees resolve
	// against summaries exported by dependencies (already in g.acquires).
	for changed := true; changed; {
		changed = false
		for sym, callees := range calls {
			for _, callee := range callees {
				src := summary[callee]
				if src == nil {
					src = g.acquires[callee]
				}
				for k := range src {
					if !summary[sym][k] {
						summary[sym][k] = true
						changed = true
					}
				}
			}
		}
	}
	for sym, keys := range summary {
		g.acquires[sym] = keys
	}

	for _, pc := range pending {
		acq := summary[pc.sym]
		if acq == nil {
			acq = g.acquires[pc.sym]
		}
		for _, h := range pc.held {
			for k := range acq {
				if k != h {
					g.addEdge(pass, h, k, pc.pos, pc.fn)
				}
			}
		}
	}
}

func (g *lockGraph) addEdge(pass *Pass, from, to string, pos token.Pos, fn string) {
	key := [2]string{from, to}
	if _, ok := g.edges[key]; !ok {
		g.edges[key] = lockEdge{pos: pass.Fset.Position(pos), fn: fn}
	}
}

// finish reports every edge of the whole-program graph that sits on a
// cycle, at the position the ordering was first observed.
func (g *lockGraph) finish(report func(Diagnostic)) {
	adj := make(map[string][]string)
	for e := range g.edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range adj[n] {
				if next == to {
					return true
				}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	var cyclic [][2]string
	for e := range g.edges {
		if reaches(e[1], e[0]) {
			cyclic = append(cyclic, e)
		}
	}
	sort.Slice(cyclic, func(i, j int) bool {
		if cyclic[i][0] != cyclic[j][0] {
			return cyclic[i][0] < cyclic[j][0]
		}
		return cyclic[i][1] < cyclic[j][1]
	})
	for _, e := range cyclic {
		w := g.edges[e]
		report(Diagnostic{
			Check:   "lockcheck",
			File:    w.pos.Filename,
			Line:    w.pos.Line,
			Column:  w.pos.Column,
			Message: fmt.Sprintf("lock order cycle: %s acquires %s while holding %s, but another path orders them the other way around (in %s)", w.fn, shortLockKey(e[1]), shortLockKey(e[0]), w.fn),
		})
	}
}

// shortLockKey trims the package path to its last element for messages.
func shortLockKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// checkStructs maps each annotated field object to the name of its guard
// field and reports the annotation errors: a guard that is not a field of
// the same struct, and a package-level struct's mutex that no annotation
// names.
func checkStructs(pass *Pass) map[*types.Var]string {
	named := make(map[*ast.StructType]string) // package-level structs
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						named[st] = ts.Name.Name
					}
				}
			}
		}
	}

	guards := make(map[*types.Var]string)
	for _, n := range pass.Nodes() {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			continue
		}
		names := make(map[string]bool)
		for _, fld := range st.Fields.List {
			for _, name := range fld.Names {
				names[name.Name] = true
			}
		}
		guarded := make(map[string]bool) // guard names the annotations use
		var mutexes []*ast.Ident         // mutex fields that do not say what they guard
		for _, fld := range st.Fields.List {
			text := fieldCommentText(fld)
			if isMutex(pass.Info.Types[fld.Type].Type) && !strings.Contains(text, "guards ") {
				mutexes = append(mutexes, fld.Names...)
			}
			m := guardedByRe.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			guard := m[1]
			guarded[guard] = true
			if !names[guard] {
				pass.Reportf("lockcheck", fld.Pos(), "guard %q named by annotation is not a field of this struct", guard)
				continue
			}
			for _, name := range fld.Names {
				if v, ok := pass.Info.Defs[name].(*types.Var); ok {
					guards[v] = guard
				}
			}
		}
		if typeName := named[st]; typeName != "" {
			for _, mu := range mutexes {
				if !guarded[mu.Name] {
					pass.Reportf("lockcheck", mu.Pos(), "mutex %s.%s guards no annotated fields; add `guarded by %s` to the fields it protects (or say what it guards in its own comment) so lockcheck can enforce it", typeName, mu.Name, mu.Name)
				}
			}
		}
	}
	return guards
}

// fieldCommentText joins a field's doc and line comments.
func fieldCommentText(field *ast.Field) string {
	var b strings.Builder
	if field.Doc != nil {
		b.WriteString(field.Doc.Text())
		b.WriteString(" ")
	}
	if field.Comment != nil {
		b.WriteString(field.Comment.Text())
	}
	return b.String()
}

// isMutex reports whether t is a sync.Mutex or sync.RWMutex (or a pointer
// to one).
func isMutex(t types.Type) bool {
	return namedTypeIn(t, "sync", "Mutex") || namedTypeIn(t, "sync", "RWMutex")
}

// lockCall decodes mu.Lock()/RLock()/Unlock()/RUnlock() on a sync mutex into
// the state key (the mutex expression's text), the type-level key for the
// order graph, and the mode the call grants (0 for unlocks).
func lockCall(pass *Pass, call *ast.CallExpr) (inst, key string, mode lockMode, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock":
		mode = lockWrite | lockRead
	case "RLock":
		mode = lockRead
	case "Unlock", "RUnlock":
	default:
		return "", "", 0, false
	}
	mu := ast.Unparen(sel.X)
	if !isMutex(pass.Info.Types[mu].Type) {
		return "", "", 0, false
	}
	return exprString(mu), lockKeyOf(pass, mu), mode, true
}

// lockKeyOf renders the type-level key for a mutex expression: the owning
// named struct's field ("pkg.Type.field") or a package-level var
// ("pkg.var"). Locals have no stable key.
func lockKeyOf(pass *Pass, mu ast.Expr) string {
	switch x := mu.(type) {
	case *ast.SelectorExpr:
		base := pass.Info.Types[x.X].Type
		if base == nil {
			return ""
		}
		if ptr, isPtr := base.(*types.Pointer); isPtr {
			base = ptr.Elem()
		}
		if named, isNamed := base.(*types.Named); isNamed && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name
		}
	case *ast.Ident:
		if v, isVar := pass.Info.Uses[x].(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// constructedLocals returns the objects of local variables initialized from
// a composite literal (or new) in fn — values that are provably unshared
// while the function builds them, so unlocked access is fine.
func constructedLocals(pass *Pass, fn *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !isConstruction(pass, n.Rhs[i]) {
					continue
				}
				if obj := pass.Info.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) != 0 {
				return true
			}
			for _, id := range n.Names { // var x T: zero value, unshared
				if obj := pass.Info.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isConstruction reports whether e is T{...}, &T{...} or new(T).
func isConstruction(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := pass.Info.Uses[id].(*types.Builtin)
		return ok && b.Name() == "new"
	}
	return false
}

// lockWalker performs the lock-state walk of one function declaration.
type lockWalker struct {
	pass     *Pass
	graph    *lockGraph
	fn       string                // function name, for messages
	guards   map[*types.Var]string // nil when accesses go unchecked
	exempt   map[types.Object]bool // constructed locals
	detached bool                  // inside a go or stored literal
	direct   map[string]bool       // lock keys fn acquires itself
	callees  []string              // symbols fn calls
	pending  []pendingCall
}

// stmts processes a statement list, returning the exit state and whether the
// list definitely terminates (return).
func (w *lockWalker) stmts(list []ast.Stmt, st lockState) (lockState, bool) {
	for _, s := range list {
		var term bool
		st, term = w.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *lockWalker) stmt(s ast.Stmt, st lockState) (lockState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.expr(s.X, st, false), false
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			st = w.expr(rhs, st, false)
		}
		for _, lhs := range s.Lhs {
			if _, ok := lhs.(*ast.Ident); ok && s.Tok == token.DEFINE {
				continue // definition, not a field write
			}
			st = w.expr(lhs, st, true)
		}
		return st, false
	case *ast.IncDecStmt:
		return w.expr(s.X, st, true), false
	case *ast.SendStmt:
		st = w.expr(s.Chan, st, false)
		return w.expr(s.Value, st, false), false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = w.expr(v, st, false)
					}
				}
			}
		}
		return st, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = w.expr(r, st, false)
		}
		return st, true
	case *ast.BlockStmt:
		return w.stmts(s.List, st.clone())
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		st = w.expr(s.Cond, st, false)
		thenSt, thenTerm := w.stmts(s.Body.List, st.clone())
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = w.stmt(s.Else, st.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return join(thenSt, elseSt), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			st = w.expr(s.Cond, st, false)
		}
		bodySt, _ := w.stmts(s.Body.List, st.clone())
		if s.Post != nil {
			w.stmt(s.Post, bodySt)
		}
		if s.Cond == nil {
			// for {}: the only exits are breaks inside the body; keep the
			// entry state as the conservative join.
			return st, false
		}
		return join(st, bodySt), false
	case *ast.RangeStmt:
		st = w.expr(s.X, st, false)
		bodySt, _ := w.stmts(s.Body.List, st.clone())
		return join(st, bodySt), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = w.expr(s.Tag, st, false)
		}
		return w.caseClauses(s.Body.List, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		st, _ = w.stmt(s.Assign, st)
		return w.caseClauses(s.Body.List, st)
	case *ast.SelectStmt:
		return w.caseClauses(s.Body.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.DeferStmt:
		return w.deferred(s.Call, st), false
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			st = w.expr(a, st, false)
		}
		if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.detachedLit(fl) // runs on another goroutine
		}
		return st, false
	default:
		return st, false
	}
}

// caseClauses joins the bodies of switch/select cases. A switch without a
// default may fall through entirely, so the entry state joins in too.
func (w *lockWalker) caseClauses(clauses []ast.Stmt, st lockState) (lockState, bool) {
	var out lockState
	sawDefault := false
	allTerm := len(clauses) > 0
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				sawDefault = true
			}
			for _, e := range c.List {
				st = w.expr(e, st, false)
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				sawDefault = true
			} else {
				w.stmt(c.Comm, st.clone())
			}
			body = c.Body
		}
		caseSt, term := w.stmts(body, st.clone())
		if term {
			continue
		}
		allTerm = false
		if out == nil {
			out = caseSt
		} else {
			out = join(out, caseSt)
		}
	}
	if out == nil {
		return st.clone(), allTerm && sawDefault
	}
	if !sawDefault {
		out = join(out, st)
	}
	return out, false
}

// deferred handles a defer: a deferred Unlock keeps the lock held for the
// body; a deferred function literal runs before it, so it is analyzed with
// the registration-point state.
func (w *lockWalker) deferred(call *ast.CallExpr, st lockState) lockState {
	for _, a := range call.Args {
		st = w.expr(a, st, false)
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.stmts(fl.Body.List, st.clone())
		return st
	}
	if _, _, _, isLock := lockCall(w.pass, call); isLock {
		return st // deferred unlock: lock stays held until return
	}
	return w.expr(call.Fun, st, false)
}

// detachedLit walks a function literal that runs later or on another
// goroutine: with nothing held, and outside the enclosing function's
// acquisition summary.
func (w *lockWalker) detachedLit(fl *ast.FuncLit) {
	saved := w.detached
	w.detached = true
	w.stmts(fl.Body.List, make(lockState))
	w.detached = saved
}

// expr walks an expression, checking guarded accesses and applying lock
// events and calls in evaluation order. write marks the outermost
// expression as a write target.
func (w *lockWalker) expr(e ast.Expr, st lockState, write bool) lockState {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return w.expr(e.X, st, write)
	case *ast.SelectorExpr:
		st = w.expr(e.X, st, false)
		w.checkAccess(e, st, write)
		return st
	case *ast.CallExpr:
		if inst, key, mode, isLock := lockCall(w.pass, e); isLock {
			w.lock(e, inst, key, mode, st)
			return st
		}
		if fl, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok {
			// Immediately-invoked literal: runs here, inherits the state.
			for _, a := range e.Args {
				st = w.expr(a, st, false)
			}
			w.stmts(fl.Body.List, st.clone())
			return st
		}
		st = w.expr(e.Fun, st, false)
		for _, a := range e.Args {
			st = w.expr(a, st, false)
		}
		w.call(e, st)
		return st
	case *ast.FuncLit:
		// Stored for later: the critical section cannot be assumed to
		// survive until it runs.
		w.detachedLit(e)
		return st
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.expr(e.X, st, true) // address escapes: treat as write
		}
		return w.expr(e.X, st, false)
	case *ast.BinaryExpr:
		st = w.expr(e.X, st, false)
		return w.expr(e.Y, st, false)
	case *ast.IndexExpr:
		st = w.expr(e.X, st, write)
		return w.expr(e.Index, st, false)
	case *ast.SliceExpr:
		st = w.expr(e.X, st, write)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			if idx != nil {
				st = w.expr(idx, st, false)
			}
		}
		return st
	case *ast.StarExpr:
		return w.expr(e.X, st, write)
	case *ast.TypeAssertExpr:
		return w.expr(e.X, st, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			st = w.expr(el, st, false)
		}
		return st
	case *ast.KeyValueExpr:
		st = w.expr(e.Key, st, false)
		return w.expr(e.Value, st, false)
	default:
		return st
	}
}

// lock applies one decoded lock event to st in place: an acquisition is
// checked for self-deadlock and orders itself after every lock that may be
// held; a release drops the lock.
func (w *lockWalker) lock(call *ast.CallExpr, inst, key string, mode lockMode, st lockState) {
	if mode == 0 {
		delete(st, inst)
		return
	}
	if _, held := st[inst]; held {
		w.pass.Reportf("lockcheck", call.Pos(), "%s acquires %s while this function already holds it: guaranteed self-deadlock on a non-reentrant mutex", w.fn, inst)
	}
	for _, h := range st {
		if h.key != "" && key != "" && h.key != key {
			w.graph.addEdge(w.pass, h.key, key, call.Pos(), w.fn)
		}
	}
	if key != "" && !w.detached {
		w.direct[key] = true
	}
	st[inst] = heldLock{mode: st[inst].mode | mode, key: key}
}

// call records a plain call for the function's acquisition summary and,
// while locks may be held, for the call-summary edges the package fixpoint
// expands.
func (w *lockWalker) call(call *ast.CallExpr, st lockState) {
	sym := SymbolOf(calleeObject(w.pass.Info, call))
	if sym == "" {
		return
	}
	if !w.detached {
		w.callees = append(w.callees, sym)
	}
	var held []string
	for _, h := range st {
		if h.key != "" {
			held = append(held, h.key)
		}
	}
	if len(held) > 0 {
		w.pending = append(w.pending, pendingCall{held: held, sym: sym, pos: call.Pos(), fn: w.fn})
	}
}

// checkAccess validates one selector against the guard table.
func (w *lockWalker) checkAccess(sel *ast.SelectorExpr, st lockState, write bool) {
	selection, ok := w.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	fld, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	guard, guarded := w.guards[fld]
	if !guarded {
		return
	}
	if w.exempt[rootObject(w.pass, sel.X)] {
		return // constructed locally, unshared
	}
	key := exprString(sel.X) + "." + guard
	mode := st[key].mode
	access := exprString(sel)
	switch {
	case write && mode&lockWrite == 0 && mode&lockRead != 0:
		w.pass.Reportf("lockcheck", sel.Pos(),
			"write to %s (guarded by %s) with only the read lock held; %s.Lock is required", access, guard, key)
	case write && mode == 0:
		w.pass.Reportf("lockcheck", sel.Pos(),
			"write to %s (guarded by %s) without %s.Lock held on every path", access, guard, key)
	case !write && mode == 0:
		w.pass.Reportf("lockcheck", sel.Pos(),
			"read of %s (guarded by %s) without %s held on every path", access, guard, key)
	}
}

// rootObject resolves the leftmost identifier of a selector chain.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.Info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}
