package lint

import (
	"go/ast"
	"maps"
	"slices"
	"strings"

	"repro/internal/lint/analysis"
)

// IgnoreCheck keeps the suppression escape hatch auditable. The only
// way to silence another analyzer is
//
//	//flockvet:ignore <analyzer> <reason>
//
// and this analyzer rejects directives that name no known analyzer or
// carry no reason — a reason-less ignore is indistinguishable from a
// drive-by suppression and never takes effect anyway (the driver only
// honors well-formed directives).
var IgnoreCheck = &analysis.Analyzer{
	Name: "ignorecheck",
	Doc: `flockvet:ignore directives must name an analyzer and a reason

Malformed suppression directives are flagged: unknown analyzer names
catch typos (a misspelled ignore silently suppresses nothing), and
missing reasons make suppressions unauditable.`,
}

func init() { IgnoreCheck.Run = runIgnoreCheck }

func runIgnoreCheck(pass *analysis.Pass) (interface{}, error) {
	known := knownNames()
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				checkIgnoreComment(pass, known, c)
			}
		}
	}
	return nil, nil
}

func checkIgnoreComment(pass *analysis.Pass, known map[string]bool, c *ast.Comment) {
	d, ok := parseIgnoreComment(c)
	if !ok {
		return
	}
	switch {
	case d.analyzer == "":
		pass.Reportf(c.Pos(), "flockvet:ignore without an analyzer name: use //flockvet:ignore <analyzer> <reason>")
	case !known[d.analyzer]:
		names := slices.Sorted(maps.Keys(known))
		pass.Reportf(c.Pos(), "flockvet:ignore names unknown analyzer %q: the directive suppresses nothing (known: %s)", d.analyzer, strings.Join(names, ", "))
	case d.reason == "":
		pass.Reportf(c.Pos(), "flockvet:ignore %s without a reason: suppressions must be auditable — state why the invariant does not apply here", d.analyzer)
	}
}
