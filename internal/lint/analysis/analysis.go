// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface that flock-vet's analyzers
// are written against. The container this repo builds in has no module
// proxy access, so rather than vendoring x/tools wholesale we implement
// the small subset the invariant suite needs: an Analyzer descriptor, a
// per-package Pass with type information, and positional Diagnostics.
// Analyzers written against this package port to the real go/analysis
// verbatim (same field and method names) if the dependency ever becomes
// available.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker: a name (used in diagnostics
// and in //flockvet:ignore directives), documentation, and a Run
// function invoked once per type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier: lowercase, no spaces. It keys
	// ignore directives and CI output.
	Name string
	// Doc states the enforced invariant: first line is the summary, the
	// rest explains what flags and why (shown by flock-vet -help).
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	// The returned value is ignored by this driver (the real go/analysis
	// uses it for inter-analyzer facts, which this suite does not need).
	Run func(*Pass) (interface{}, error)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding. The driver applies //flockvet:ignore
	// filtering and output formatting.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: sprintf(format, args...)})
}

// TypeOf returns the type of expression e (nil when unknown), looking
// through the package's type info the same way go/analysis passes do.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t := p.TypesInfo.TypeOf(e); t != nil {
		return t
	}
	return nil
}
