// Package lint is flock-vet's invariant suite: custom analyzers that
// mechanically enforce the durability, concurrency, and resilience
// contracts PRs 2–7 established by hand. Each analyzer is grounded in a
// bug class a past PR fixed; docs/invariants.md catalogues the full set.
//
// Suppressions use an auditable escape hatch:
//
//	//flockvet:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above. Directives
// without a reason (or naming no known analyzer) are themselves flagged
// by the ignorecheck analyzer, so every suppression carries its
// justification into review.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// Analyzers returns the full suite in deterministic order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AckAfterSync,
		CacheGen,
		CloseCheck,
		CtxLoop,
		EpochGate,
		FaultPoint,
		GovernGate,
		IgnoreCheck,
		LockOrder,
		RetryIdempotent,
	}
}

// knownNames is the set ignore directives may reference: the analyzers
// and the whole-program dead-export check.
func knownNames() map[string]bool {
	m := map[string]bool{deadExport: true}
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// Finding is one post-filter diagnostic ready for printing.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// RunPackage runs the given analyzers over one loaded package, applies
// //flockvet:ignore filtering, and returns the surviving findings.
func RunPackage(pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	ignores := collectIgnores(pkg.Fset, pkg.Files)
	var out []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if ignores.suppressed(name, pos) {
				return
			}
			out = append(out, Finding{Analyzer: name, Pos: pos, Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ignoreDirective is one parsed //flockvet:ignore comment.
type ignoreDirective struct {
	analyzer string // "" when malformed
	reason   string
	pos      token.Position
}

type ignoreIndex struct {
	// byLine maps file → line → directives on that line.
	byLine map[string]map[int][]ignoreDirective
	all    []ignoreDirective
}

const ignorePrefix = "//flockvet:ignore"

// collectIgnores parses every //flockvet:ignore directive in the files.
// Malformed directives are kept (for ignorecheck) but never suppress.
func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{byLine: map[string]map[int][]ignoreDirective{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseIgnoreComment(c)
				if !ok {
					continue
				}
				d.pos = fset.Position(c.Pos())
				idx.all = append(idx.all, d)
				if idx.byLine[d.pos.Filename] == nil {
					idx.byLine[d.pos.Filename] = map[int][]ignoreDirective{}
				}
				idx.byLine[d.pos.Filename][d.pos.Line] = append(idx.byLine[d.pos.Filename][d.pos.Line], d)
			}
		}
	}
	return idx
}

// parseIgnoreComment decodes one //flockvet:ignore comment; ok is
// false for unrelated comments. Missing analyzer/reason come back as
// empty strings — ignorecheck reports those, and suppression ignores
// them.
func parseIgnoreComment(c *ast.Comment) (ignoreDirective, bool) {
	if !strings.HasPrefix(c.Text, ignorePrefix) {
		return ignoreDirective{}, false
	}
	rest := strings.TrimPrefix(c.Text, ignorePrefix)
	fields := strings.Fields(rest)
	var d ignoreDirective
	if len(fields) >= 1 {
		d.analyzer = fields[0]
	}
	if len(fields) >= 2 {
		d.reason = strings.Join(fields[1:], " ")
	}
	return d, true
}

// suppressed reports whether a well-formed directive for analyzer sits
// on the diagnostic's line or the line directly above it.
func (idx *ignoreIndex) suppressed(analyzer string, pos token.Position) bool {
	lines := idx.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range lines[line] {
			if d.analyzer == analyzer && d.reason != "" {
				return true
			}
		}
	}
	return false
}

// --- shared analyzer helpers ---

// inScope restricts an analyzer to the module paths it guards, while
// always admitting its own analysistest fixture packages (package name
// "<analyzer>_fixture") so golden tests run without the real import
// paths.
func inScope(pass *analysis.Pass, prefixes ...string) bool {
	if pass.Pkg.Name() == pass.Analyzer.Name+"_fixture" {
		return true
	}
	path := pass.Pkg.Path()
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// testFile reports whether the file holding pos is a _test.go file;
// the suite guards shipped code, not test scaffolding.
func testFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isPtrToNamed reports whether t is *pkgPath.name.
func isPtrToNamed(t types.Type, pkgPath, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isDurableFile reports whether t is a durability file handle: *os.File
// or the fault plane's *fault.File wrapper (matched by type name so
// fixture packages can declare their own fault.File stand-in).
func isDurableFile(t types.Type) bool {
	if t == nil {
		return false
	}
	if isPtrToNamed(t, "os", "File") {
		return true
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "File" || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == "repro/internal/fault" || strings.HasSuffix(p, "/fault") || obj.Pkg().Name() == "fault"
}

// calleeName returns the bare name of the function being called
// ("walWaitDurable", "Sync", ...) or "".
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// recvExpr returns the receiver expression of a method-style call
// (x in x.Close()) or nil for plain calls.
func recvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// funcFullName resolves a call to its fully-qualified callee
// ("time.Sleep", "os.Rename") when type info knows it, else "".
func funcFullName(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return ""
	}
	if fn, ok := info.ObjectOf(id).(*types.Func); ok {
		if fn.Pkg() != nil {
			return fn.Pkg().Path() + "." + fn.Name()
		}
		return fn.Name()
	}
	return ""
}
