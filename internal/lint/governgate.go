package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// GovernGate enforces the PR 30 one-gate contract: every statement becomes
// a core.Prepared in (*Flock).Parse and passes one governance gate before
// it runs. A second parse site, or a second caller of a gate step, is a
// side door — a statement that skips the access check or the provenance
// capture, or an access check that skips the denial audit. Copies of one
// enforcement point drift apart; PR 30 found two such drifts before it
// folded them.
var GovernGate = &analysis.Analyzer{
	Name: "governgate",
	Doc: `statements are parsed in (*Flock).Parse and governed in one gate

In non-test repro/internal/core, a parse function of repro/internal/sql
(Parse, ParseOne) is called only from (*Flock).Parse, checkAccess only
from (*Flock).CheckPrepared, and CaptureStmt only from (*Flock).gate.
repro/internal/server calls none of them: it reaches statements through
core (one-gate invariant, PR 30).`,
	Run: runGovernGate,
}

const (
	governCorePkg   = "repro/internal/core"
	governServerPkg = "repro/internal/server"
	governSQLPkg    = "repro/internal/sql"
)

// gateSteps maps each governance step to the one *Flock method that may
// call it.
var gateSteps = map[string]string{
	"checkAccess": "CheckPrepared",
	"CaptureStmt": "gate",
}

func runGovernGate(pass *analysis.Pass) (interface{}, error) {
	if !inScope(pass, governCorePkg, governServerPkg) {
		return nil, nil
	}
	// The fixture stands in for core; server owns no gate step at all.
	core := pass.Pkg.Path() == governCorePkg || pass.Pkg.Name() == pass.Analyzer.Name+"_fixture"
	for _, file := range pass.Files {
		if testFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			owner := ""
			if core && isFlockMethod(fd) {
				owner = fd.Name.Name
			}
			checkGateCalls(pass, fd, owner)
		}
	}
	return nil, nil
}

// checkGateCalls reports every parse or gate-step call in fd that owner
// (the enclosing *Flock method's name, "" for anything else) may not make.
func checkGateCalls(pass *analysis.Pass, fd *ast.FuncDecl, owner string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := sqlParseFunc(pass, call); fn != "" && owner != "Parse" {
			pass.Reportf(call.Pos(), "sql.%s called in %s: statement text becomes statements only in (*Flock).Parse, which audits a parse failure and hands back a Prepared for the one gate — parse through Flock.Parse (one-gate invariant, PR 30)", fn, fd.Name.Name)
		}
		name := calleeName(call)
		if want, ok := gateSteps[name]; ok && owner != want {
			pass.Reportf(call.Pos(), "%s called in %s: only (*Flock).%s may call it, so every statement passes the same governance steps in the same order — go through ExecPrepared/QueryPrepared (or CheckPrepared) instead (one-gate invariant, PR 30)", name, fd.Name.Name, want)
		}
		return true
	})
}

// sqlParseFunc returns the name of the repro/internal/sql parse function
// call invokes ("Parse", "ParseOne"), or "".
func sqlParseFunc(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != governSQLPkg || !strings.HasPrefix(fn.Name(), "Parse") {
		return ""
	}
	return fn.Name()
}

// isFlockMethod reports whether fd is a method on Flock or *Flock.
func isFlockMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == "Flock"
}
