package lint

import (
	"go/token"
	"path/filepath"
	"testing"

	"repro/internal/lint/load"
)

// TestFlockVetCleanOnTree is the meta-test backing the CI gate: the
// full invariant suite must run clean over every package in the module.
// When this fails, the same findings reproduce locally with
//
//	go run ./cmd/flock-vet ./...
//
// (or `make lint`). Fix the violation — or, when the invariant
// genuinely does not apply, suppress it with a reasoned
// //flockvet:ignore directive.
func TestFlockVetCleanOnTree(t *testing.T) {
	root, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	pkgs, err := load.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages — pattern ./... broken?", len(pkgs))
	}
	analyzers := Analyzers()
	if len(analyzers) < 7 {
		t.Fatalf("suite has %d analyzers, want >= 7", len(analyzers))
	}
	for _, pkg := range pkgs {
		findings, err := RunPackage(pkg, analyzers)
		if err != nil {
			t.Fatalf("%s: %v", pkg.PkgPath, err)
		}
		for _, f := range findings {
			t.Errorf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
		}
	}
}

// TestIgnoreDirectiveSuppression pins the driver's filtering rules
// beyond the fixture coverage: only well-formed directives for the
// right analyzer on the right line suppress.
func TestIgnoreDirectiveSuppression(t *testing.T) {
	idx := &ignoreIndex{byLine: map[string]map[int][]ignoreDirective{
		"f.go": {
			10: {{analyzer: "closecheck", reason: "caller owns fd"}},
			20: {{analyzer: "closecheck", reason: ""}},
			30: {{analyzer: "ctxloop", reason: "bounded by peer"}},
		},
	}}
	cases := []struct {
		analyzer string
		line     int
		want     bool
	}{
		{"closecheck", 10, true},  // same line
		{"closecheck", 11, true},  // directive on the line above
		{"closecheck", 12, false}, // too far away
		{"closecheck", 20, false}, // reason-less: never suppresses
		{"closecheck", 30, false}, // wrong analyzer
		{"ctxloop", 30, true},
	}
	for _, c := range cases {
		pos := tokenPosition("f.go", c.line)
		if got := idx.suppressed(c.analyzer, pos); got != c.want {
			t.Errorf("suppressed(%s, line %d) = %v, want %v", c.analyzer, c.line, got, c.want)
		}
	}
}

func tokenPosition(file string, line int) (p token.Position) {
	p.Filename = file
	p.Line = line
	return p
}

// TestNoDeadExports is the whole-program meta-test beside
// TestFlockVetCleanOnTree: every exported identifier of the module is
// referenced by a non-test file of the module or of bench/ (a module of
// its own that drives the real server), or carries a reasoned
// //flockvet:ignore deadexport directive.
func TestNoDeadExports(t *testing.T) {
	root, err := load.ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	pkgs, err := load.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	bench, err := load.Load(filepath.Join(root, "bench"), "./...")
	if err != nil {
		t.Fatalf("loading bench: %v", err)
	}
	if len(bench) == 0 {
		t.Fatal("bench/ loaded no packages")
	}
	for _, f := range deadExports(append(pkgs, bench...)) {
		t.Errorf("%s:%d:%d: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message)
	}
}
