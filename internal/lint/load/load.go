// Package load type-checks Go packages for flock-vet without depending
// on golang.org/x/tools/go/packages (unavailable in the build
// environment). It shells out to `go list -export -deps -json` for
// package metadata and compiled export data — the same artifacts the
// go command hands to `go vet` — then parses and type-checks each
// target package from source, resolving every import through the
// export data via the standard library's gc importer.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	GoFiles   []string // absolute paths, parallel to Files
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct {
		Path      string
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// GoList runs `go list -e -deps -export -json` over patterns in dir and
// returns the decoded package stream.
func GoList(dir string, patterns ...string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(out)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			if err == io.EOF {
				break
			}
			_ = cmd.Wait()
			return nil, fmt.Errorf("lint: decoding go list output: %w (stderr: %s)", err, stderr.String())
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("lint: go list: %w (stderr: %s)", err, stderr.String())
	}
	return pkgs, nil
}

// Load type-checks the packages matching patterns (run from dir; "./..."
// is typical) and returns them ready for analysis. Test files are not
// loaded — flock-vet checks shipped code; the analyzers' own fixtures
// cover test-shaped idioms separately.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	goVersion := ""
	var targets []*listPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
			if goVersion == "" && p.Module != nil && p.Module.GoVersion != "" {
				goVersion = "go" + p.Module.GoVersion
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := NewImporter(fset, exports)
	var out []*Package
	for _, p := range targets {
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := TypeCheck(fset, p.ImportPath, p.Dir, files, imp.ForPackage(p.ImportMap), goVersion)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// TypeCheck parses and type-checks one package from explicit source
// files, resolving imports through imp.
func TypeCheck(fset *token.FileSet, pkgPath, dir string, files []string, imp types.Importer, goVersion string) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		af, err := parser.ParseFile(fset, f, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", f, err)
		}
		syntax = append(syntax, af)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp, GoVersion: goVersion}
	tpkg, err := conf.Check(pkgPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      fset,
		Files:     syntax,
		Types:     tpkg,
		TypesInfo: info,
		GoFiles:   files,
	}, nil
}

// Importer resolves import paths to compiled export data through
// the standard library's gc importer, with per-package source-path →
// canonical-path mapping (the vet.cfg ImportMap contract).
type Importer struct {
	gc      types.ImporterFrom
	exports map[string]string
}

func NewImporter(fset *token.FileSet, exports map[string]string) *Importer {
	m := &Importer{exports: exports}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := m.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	m.gc = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return m
}

// ForPackage returns a types.Importer applying pkg-specific import
// mapping before the shared export-data lookup.
func (m *Importer) ForPackage(importMap map[string]string) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return m.gc.ImportFrom(path, "", 0)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ModuleRoot locates the enclosing module root of dir (the directory
// holding go.mod), for tests that need to run the loader from anywhere
// inside the repository.
//
//flockvet:ignore deadexport the lint and load tests locate the module through it
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("lint: not inside a module (dir %s)", dir)
	}
	return filepath.Dir(gomod), nil
}
