// Dead-code gate: every package-level function, method, type, constant
// and variable in this module must be referred to by some non-test file
// of this module or of bench/ (its own module, which drives the daemons
// through the same packages). The packages are type-checked from source
// with the standard library's go/types over `go list -export` data, so
// the check needs nothing beyond the toolchain.
package viewstags_test

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
	"testing"
)

// keptUnused names what the gate lets through: references that tests in
// other packages need (a test-only helper used by its own package's
// tests belongs in that package's _test.go files instead), API surface
// kept on purpose, and the zero-value sentinels of enums, which exist so
// the zero value is never a valid member. Keys are "<package path>.<name>"
// or "<package path>.<type>.<method>".
var keptUnused = map[string]string{
	"viewstags/internal/profilestore.Snapshot.PredictCatalog": "reference for internal/server and root tests",
	"viewstags/internal/obs.Validate":                         "exposition checker for root and internal/server tests",
	"viewstags/internal/cluster.Gateway.CatchUp":              "drives catch-up in root integration tests",
	"viewstags/internal/faultproxy.Proxy.Revive":              "heals a proxy in root integration tests",
	"viewstags/internal/server.Server.Metrics":                "read by root tests",
	"viewstags/internal/cluster.Gateway.Metrics":              "read by root tests",
	"viewstags/internal/server.Routes":                        "docs_test holds the daemon's table against API.md",
	"viewstags/internal/ytapi.Client.Search":                  "the simulator's search endpoint, kept as API surface",
	"viewstags/internal/server.statusWriter.Unwrap":           "http.ResponseController unwraps through it",
	"viewstags/internal/dist.SpreadInvalid":                   "zero-value enum sentinel",
	"viewstags/internal/geo.RegionInvalid":                    "zero-value enum sentinel",
	"viewstags/internal/synth.PopStateInvalid":                "zero-value enum sentinel",
	"viewstags/internal/tags.ClassInvalid":                    "zero-value enum sentinel",
}

// listedPackage is the part of `go list -json` the gate reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

func goListDeps(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

func TestNoUnusedExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Dependencies come before dependents in -deps order, so the module's
	// packages can be checked in list order.
	var ours []listedPackage
	exports := map[string]string{}
	for _, p := range append(goListDeps(t, "."), goListDeps(t, "bench")...) {
		if _, seen := exports[p.ImportPath]; !seen && !p.Standard {
			ours = append(ours, p)
		}
		exports[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}

	used := map[types.Object]bool{}
	var candidates []types.Object
	for _, p := range ours {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		markUses(files, info, used)
		candidates = append(candidates, packageLevel(pkg)...)
	}
	ifaces := interfaces(checked)

	var offenders []string
	for _, obj := range candidates {
		key := objectKey(obj)
		if used[obj] || keptUnused[key] != "" || implementsSome(obj, ifaces) {
			continue
		}
		pos := fset.Position(obj.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		offenders = append(offenders, fmt.Sprintf("%s:%d: %s", rel, pos.Line, key))
	}
	sort.Strings(offenders)
	if len(offenders) > 0 {
		t.Errorf("%d declarations have no reference from a non-test file (delete them, move test-only ones into _test.go files, or name a cross-package test reference in keptUnused):\n%s",
			len(offenders), strings.Join(offenders, "\n"))
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// markUses records every object an identifier refers to, except a
// function's references to itself and a method's receiver type, so
// recursion and methods do not keep a declaration alive.
func markUses(files []*ast.File, info *types.Info, used map[types.Object]bool) {
	for _, f := range files {
		for _, d := range f.Decls {
			var self types.Object
			var recv *ast.FieldList
			if fd, ok := d.(*ast.FuncDecl); ok {
				self, recv = info.Defs[fd.Name], fd.Recv
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if recv != nil && n == ast.Node(recv) {
					return false
				}
				if id, ok := n.(*ast.Ident); ok {
					switch obj := info.Uses[id].(type) {
					case *types.Func:
						used[obj.Origin()] = used[obj.Origin()] || obj != self
					case *types.Var:
						used[obj.Origin()] = true
					case types.Object:
						used[obj] = true
					}
				}
				return true
			})
		}
	}
}

// packageLevel lists a package's package-level declarations and the
// methods of its named types, minus the entry points the toolchain
// calls.
func packageLevel(pkg *types.Package) []types.Object {
	var out []types.Object
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if name == "_" || name == "init" || (name == "main" && pkg.Name() == "main") {
			continue
		}
		out = append(out, obj)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				out = append(out, named.Method(i))
			}
		}
	}
	return out
}

// interfaces returns the non-generic method-set interfaces declared in
// the checked packages and everything they import, the standard library
// included (fmt.Stringer, http.Handler, …).
func interfaces(checked map[string]*types.Package) []*types.Interface {
	var out []*types.Interface
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			named, ok := p.Scope().Lookup(name).Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	return out
}

// implementsSome reports whether obj is a method that some interface
// names and its receiver type satisfies — a call through the interface
// leaves no identifier behind.
func implementsSome(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	ptr := types.NewPointer(receiver(fn).Obj().Type())
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); m != nil && types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

func receiver(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		return fmt.Sprintf("%s.%s.%s", obj.Pkg().Path(), receiver(fn).Obj().Name(), obj.Name())
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
