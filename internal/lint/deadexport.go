package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/load"
)

// deadExport names the whole-program check deadExports runs, in findings
// and in ignore directives. It is not an analysis.Analyzer: a per-package
// pass cannot see whether another package uses an identifier, so
// flock-vet's vet-tool mode never runs it; the meta-test TestNoDeadExports
// does, over the module and bench/.
const deadExport = "deadexport"

// publicAPI is the module's one package imported from outside it: its
// exports are the SDK, used or not.
const publicAPI = "repro/pkg/flockclient"

// implicitMethods are methods the standard library calls by name through
// interfaces no loaded package need mention (error, fmt.Stringer,
// json.Marshaler, errors.Unwrap).
var implicitMethods = []string{"Error", "String", "MarshalJSON", "Unwrap"}

// deadExports reports each exported package-level identifier or method
// declared in pkgs that no file of pkgs references: an entry point only
// tests reach. pkgs holds non-test files only (load.Load), so a use from a
// _test.go file does not count. Not checked: main packages, publicAPI, and
// methods whose name an interface in reach of pkgs declares (a call
// through the interface names the interface's method, not this one). A
// finding is kept by //flockvet:ignore deadexport <reason> on its
// declaration.
func deadExports(pkgs []*load.Package) []Finding {
	used := map[string]bool{}
	viaIface := map[string]bool{}
	for _, m := range implicitMethods {
		viaIface[m] = true
	}
	seen := map[types.Type]bool{}
	for _, pkg := range pkgs {
		for _, obj := range pkg.TypesInfo.Uses {
			used[exportKey(obj)] = true
			ifaceMethods(obj.Type(), seen, viaIface)
		}
		for _, obj := range pkg.TypesInfo.Defs {
			if obj != nil {
				ifaceMethods(obj.Type(), seen, viaIface)
			}
		}
	}

	var out []Finding
	for _, pkg := range pkgs {
		if pkg.Types.Name() == "main" || pkg.PkgPath == publicAPI {
			continue
		}
		ignores := collectIgnores(pkg.Fset, pkg.Files)
		report := func(id *ast.Ident, what string) {
			obj := pkg.TypesInfo.Defs[id]
			if obj == nil || !id.IsExported() {
				return
			}
			key := exportKey(obj)
			if used[key] {
				return
			}
			pos := pkg.Fset.Position(id.Pos())
			if ignores.suppressed(deadExport, pos) {
				return
			}
			out = append(out, Finding{Analyzer: deadExport, Pos: pos,
				Message: what + " " + pkg.Types.Name() + strings.TrimPrefix(key, pkg.PkgPath) + " is referenced only by tests: delete it, unexport it, or keep it with //flockvet:ignore deadexport <reason>"})
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						report(d.Name, "func")
					} else if !viaIface[d.Name.Name] {
						report(d.Name, "method")
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							report(s.Name, "type")
						case *ast.ValueSpec:
							for _, n := range s.Names {
								report(n, "identifier")
							}
						}
					}
				}
			}
		}
	}
	return out
}

// exportKey names a package-level object or a method as package path,
// receiver type and name. load type-checks a package from source but its
// importers from export data, so one function is two types.Objects on the
// two sides of an import; only the key is the same. "" for anything else.
func exportKey(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		if obj.Parent() != pkg.Scope() {
			return ""
		}
		return pkg.Path() + "." + obj.Name()
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return pkg.Path() + "." + named.Obj().Name() + "." + obj.Name()
}

// ifaceMethods adds to names the methods of every interface t mentions,
// through pointers, containers and signatures.
func ifaceMethods(t types.Type, seen map[types.Type]bool, names map[string]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if _, ok := t.Underlying().(*types.Interface); ok {
			ifaceMethods(t.Underlying(), seen, names)
		}
	case *types.Interface:
		for i := range t.NumMethods() {
			names[t.Method(i).Name()] = true
		}
	case *types.Pointer:
		ifaceMethods(t.Elem(), seen, names)
	case *types.Slice:
		ifaceMethods(t.Elem(), seen, names)
	case *types.Array:
		ifaceMethods(t.Elem(), seen, names)
	case *types.Chan:
		ifaceMethods(t.Elem(), seen, names)
	case *types.Map:
		ifaceMethods(t.Key(), seen, names)
		ifaceMethods(t.Elem(), seen, names)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := range tup.Len() {
				ifaceMethods(tup.At(i).Type(), seen, names)
			}
		}
	}
}
