// Package lint is sthist's repo-specific static-analysis suite. It enforces,
// at compile-shape level, the invariants the rest of the codebase only states
// in comments:
//
//   - lockcheck: struct fields annotated "guarded by <mu>" may only be
//     accessed while <mu> is definitely held (RLock suffices for reads); the
//     lock-acquisition graph built from observed Lock orderings (including
//     through calls, cross-package via facts) must stay acyclic, locks must
//     not be re-acquired while held, and every mutex field must name what
//     it guards.
//   - determinism: histogram mutation, WAL emission and data output must not
//     be driven by map iteration order, and the pure estimation packages
//     must not read wall-clock time or the global math/rand source.
//   - errflow: error returns of Close/Sync/Write on the durability and
//     response paths must be consumed, and telemetry metric registrations
//     must use sthist_* snake_case names with non-empty help strings.
//   - publish: values handed to an atomic.Pointer Store (the estimator's
//     snapshot-publication point) must be fully built before the Store and
//     never written afterwards, and pointers obtained from Load are
//     read-only views.
//   - spanend: every trace span minted by StartRoot/StartRemote/StartChild
//     must reach End() on all return paths (or visibly escape to an owner
//     that ends it), so no request silently vanishes from the trace rings.
//   - walorder: on the httpapi writer path, estimator state mutations must
//     be dominated by a WAL append, and a reseed swap (AdoptHistogram) must
//     journal its KindReseed record first and refuse the swap if the journal
//     append fails — otherwise recovery silently rolls the table back.
//   - ctxflow: every outbound http.Request built in the cluster tier, the
//     load generator and the daemons must carry a context and flow through
//     traceparent injection before it is sent, and handlers must propagate
//     the inbound request context rather than minting a fresh one.
//   - leakcheck: every `go` statement needs a reachable stop — a ctx.Done
//     or channel receive, a WaitGroup joined in the package, a bounded
//     buffered-send body, or a server with a Shutdown path — and shutdown
//     methods must actually block on the goroutine's exit.
//
// The suite is stdlib-only: packages are parsed with go/parser and
// type-checked with go/types against export data obtained from the go
// command (load.go), consistent with the repo's zero-dependency rule. The
// driver loads the full dependency graph once, analyzes packages in
// dependency order, and lets analyzers export/import facts about functions
// across package boundaries (facts.go), so e.g. "this helper appends to the
// WAL" is visible to callers in other packages.
//
// Diagnostics can be suppressed per line with an escape hatch that forces a
// reason on the author:
//
//	//sthlint:ignore <check> <reason>
//
// placed on the offending line or on the line directly above it. A directive
// without a reason, or naming an unknown check, is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for editors and CI annotators. A
// diagnostic may carry a SuggestedFix applied by `sthlint -fix`.
type Diagnostic struct {
	Check   string        `json:"check"`
	File    string        `json:"file"`
	Line    int           `json:"line"`
	Column  int           `json:"column"`
	Message string        `json:"message"`
	Fix     *SuggestedFix `json:"fix,omitempty"`
}

// SuggestedFix is a mechanical remediation: a set of non-overlapping byte
// edits within the diagnostic's file.
type SuggestedFix struct {
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// TextEdit replaces file bytes [Offset, End) with NewText (End == Offset is
// a pure insertion).
type TextEdit struct {
	File    string `json:"file"`
	Offset  int    `json:"offset"`
	End     int    `json:"end"`
	NewText string `json:"new_text"`
}

// String renders the classic file:line:col: [check] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Column, d.Check, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	nodes []ast.Node      // lazy shared preorder flatten (inspector.go)
	funcs []*ast.FuncDecl // lazy function index (inspector.go)
}

// Analyzer is one pluggable check. Run sees each package in dependency
// order; the optional Finish hook runs once after every package, for
// whole-program properties (e.g. lock-graph cycles) that no single package
// can decide. Finish diagnostics go through the same suppression filter as
// Run diagnostics.
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(*Pass)
	Finish func(report func(Diagnostic))
}

// Pass gives an analyzer one package plus a reporting sink and the shared
// cross-package fact store.
type Pass struct {
	*Package
	check  string
	facts  *factStore
	report func(Diagnostic)
}

// Reportf records a diagnostic for the running analyzer at pos.
func (p *Pass) Reportf(check string, pos token.Pos, format string, args ...any) {
	p.report(p.diag(check, pos, nil, format, args...))
}

// ReportFixf records a diagnostic carrying a suggested fix.
func (p *Pass) ReportFixf(check string, pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	p.report(p.diag(check, pos, fix, format, args...))
}

func (p *Pass) diag(check string, pos token.Pos, fix *SuggestedFix, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		Check:   check,
		File:    position.Filename,
		Line:    position.Line,
		Column:  position.Column,
		Message: fmt.Sprintf(format, args...),
		Fix:     fix,
	}
}

// Analyzers returns the full suite in its canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockCheck(), Determinism(), ErrFlow(), Publish(), SpanEnd(),
		WALOrder(), CtxFlow(), LeakCheck(),
	}
}

// checkNames returns the set of valid check names (for directive validation).
func checkNames(analyzers []*Analyzer) map[string]bool {
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}

// ignoreDirective is one parsed //sthlint:ignore comment.
type ignoreDirective struct {
	check  string
	reason string
	file   string
	line   int
}

const ignorePrefix = "//sthlint:ignore"

// collectIgnores parses every //sthlint:ignore directive in the package.
// Malformed directives (no reason, unknown check) are reported via report.
func collectIgnores(pkg *Package, valid map[string]bool, report func(Diagnostic)) []ignoreDirective {
	var dirs []ignoreDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				check, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				bad := func(format string, args ...any) {
					report(Diagnostic{
						Check: "directive", File: pos.Filename, Line: pos.Line,
						Column: pos.Column, Message: fmt.Sprintf(format, args...),
					})
				}
				switch {
				case check == "":
					bad("ignore directive names no check (want //sthlint:ignore <check> <reason>)")
				case !valid[check]:
					bad("ignore directive names unknown check %q", check)
				case reason == "":
					bad("ignore directive for %q has no reason (want //sthlint:ignore <check> <reason>)", check)
				default:
					dirs = append(dirs, ignoreDirective{check: check, reason: reason, file: pos.Filename, line: pos.Line})
				}
			}
		}
	}
	return dirs
}

// suppressed reports whether d is covered by a directive on its own line or
// the line directly above.
func suppressed(d Diagnostic, dirs []ignoreDirective) bool {
	for _, dir := range dirs {
		if dir.check != d.Check || dir.file != d.File {
			continue
		}
		if dir.line == d.Line || dir.line == d.Line-1 {
			return true
		}
	}
	return false
}

// Run executes the analyzers over the packages (which Load returns in
// dependency order, so facts flow from dependencies to dependents), then
// runs each analyzer's Finish hook over the whole program. The surviving
// diagnostics come back sorted by position. Directive errors are never
// suppressible.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	valid := checkNames(analyzers)
	facts := newFactStore()
	var out []Diagnostic
	var allDirs []ignoreDirective
	for _, pkg := range pkgs {
		var raw []Diagnostic
		collect := func(d Diagnostic) { raw = append(raw, d) }
		dirs := collectIgnores(pkg, valid, collect)
		allDirs = append(allDirs, dirs...)
		for _, a := range analyzers {
			pass := &Pass{Package: pkg, check: a.Name, facts: facts, report: collect}
			a.Run(pass)
		}
		for _, d := range raw {
			if d.Check != "directive" && suppressed(d, dirs) {
				continue
			}
			out = append(out, d)
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		a.Finish(func(d Diagnostic) {
			if d.Check != "directive" && suppressed(d, allDirs) {
				return
			}
			out = append(out, d)
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out
}

// WriteText renders diagnostics one per line.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// --- shared helpers used by several analyzers ---

// namedTypeIn reports whether t (after pointer stripping) is a named type
// with the given name whose package has the given package name.
func namedTypeIn(t types.Type, pkgName, typeName string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != typeName {
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// exprString renders e compactly for matching lock bases against accesses.
func exprString(e ast.Expr) string { return types.ExprString(e) }
