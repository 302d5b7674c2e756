package repro_test

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
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports names the exported identifiers under internal/ that no
// non-test file uses but that stay, each with its reason. Keys are written
// as the guard reports them: "pkg.Name" or "pkg.Type.Method", pkg being the
// package's path below internal/.
var keptExports = map[string]string{
	"simd.ForMode":                  "the tier equivalence tests pin each kernel tier with it",
	"quant.RowQ.SerializeRowsDelta": "the codec byte pins and the fuzz seeds encode packed deltas with it",
	"dataset.Dataset.Validate":      "the generator tests use it as their oracle",
}

// keptOptions names the exported slide options that no non-test file sets
// but that stay, each with its reason.
var keptOptions = map[string]string{
	"WithAdam":            "the only setter of the ADAM moments and epsilon, which checkpoints store",
	"WithBuckets":         "a paper lever (bucket capacity, FIFO against reservoir) that ROADMAP item 3 flips",
	"WithUniformSampling": "a paper lever (LSH against uniform sampling) that ROADMAP item 3 flips",
}

// TestNoDeadInternalExports fails on an exported function, method, type,
// variable or constant declared in a non-test file under internal/ that no
// non-test file of the module uses: such a name outlives its last caller
// because nothing else fails when it does. Uses are read from scanModule.
//
// A method also counts as used when its type implements an interface that
// declares it, whether the interface is one the module declares or names,
// or is error, fmt.Stringer, io.Reader, io.Writer or one of the errors
// package's Unwrap() error and Unwrap() []error: the scan cannot see
// dynamic calls.
// Delete what it reports, or add it to keptExports with the reason.
func TestNoDeadInternalExports(t *testing.T) {
	s := scanModule(t)
	if dead := s.unused(t, s.decls, keptExports, "keptExports"); len(dead) > 0 {
		t.Errorf("exported from internal/ and used by no non-test file; delete them or add them to keptExports with a reason:\n\t%s",
			strings.Join(dead, "\n\t"))
	}
}

// TestNoUnsetOptions fails on an exported function of package slide that
// returns an Option or a TrainerOption and that no non-test file of the
// module uses: a knob that nothing sets is a configuration no command,
// example or benchmark runs. Delete what it reports, or add it to
// keptOptions with the reason.
func TestNoUnsetOptions(t *testing.T) {
	s := scanModule(t)
	if unset := s.unused(t, s.options, keptOptions, "keptOptions"); len(unset) > 0 {
		t.Errorf("slide options set by no non-test file; delete them or add them to keptOptions with a reason:\n\t%s",
			strings.Join(unset, "\n\t"))
	}
}

// unused returns, sorted, the decls that no non-test file uses and that
// kept does not list, and fails t on each entry of kept (named listName)
// that is used or no longer declared.
func (s *exportScan) unused(t *testing.T, decls []exportDecl, kept map[string]string, listName string) []string {
	t.Helper()
	kept = maps.Clone(kept)
	var out []string
	for _, d := range decls {
		if s.used[d.obj] || s.reached(d) {
			continue
		}
		if _, ok := kept[d.name]; ok {
			delete(kept, d.name)
			continue
		}
		out = append(out, fmt.Sprintf("%s (%s)", d.name, s.fset.Position(d.obj.Pos())))
	}
	for name := range kept {
		t.Errorf("%s names %s, which is used or no longer declared: drop it from the list", listName, name)
	}
	sort.Strings(out)
	return out
}

// scanModule type-checks the non-test files of every package `go list ./...`
// names (cmd/, examples/ and benchmark/ included), for the host's build
// configuration, with the standard library read from its export data, and
// records what they use and which interfaces they name.
func scanModule(t *testing.T) *exportScan {
	t.Helper()
	pkgs := listPackages(t)
	fset := token.NewFileSet()
	exports := map[string]string{} // import path → export data file
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	s := &exportScan{
		fset:    fset,
		checked: map[string]*types.Package{},
		std:     std,
		used:    map[types.Object]bool{},
	}
	// `go list -deps` prints every package after its dependencies, so each
	// module package is checked after the module packages it imports.
	for _, p := range pkgs {
		if p.Module != nil && len(p.GoFiles) > 0 {
			s.check(t, p)
		}
	}
	for _, path := range []string{"fmt", "io"} {
		pkg, err := std.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"Stringer", "Reader", "Writer"} {
			if obj := pkg.Scope().Lookup(name); obj != nil {
				s.ifaces = append(s.ifaces, obj.Type().Underlying().(*types.Interface))
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	s.ifaces = append(s.ifaces, errType.Underlying().(*types.Interface))
	for _, result := range []types.Type{errType, types.NewSlice(errType)} {
		unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewParam(token.NoPos, nil, "", result)), false))
		s.ifaces = append(s.ifaces, types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	}
	return s
}

// listedPackage is the part of a `go list -json` record the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
}

// listPackages returns the module's packages and every package they import,
// dependencies first, with export data built for the standard library.
func listPackages(t *testing.T) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Module", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
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

// exportScan type-checks the module from source in one universe, so a use
// in any package resolves to the very object its declaration made.
type exportScan struct {
	fset    *token.FileSet
	checked map[string]*types.Package
	std     types.Importer
	used    map[types.Object]bool
	decls   []exportDecl
	options []exportDecl // package slide's Option and TrainerOption constructors
	ifaces  []*types.Interface
}

// exportDecl is one exported declaration under internal/, or one option
// constructor of package slide.
type exportDecl struct {
	name string       // "pkg.Name" or "pkg.Type.Method"; an option's bare name
	obj  types.Object // *types.Func for a method
}

// Import resolves a module package to its source-checked form and any other
// package to its export data.
func (s *exportScan) Import(path string) (*types.Package, error) {
	if p, ok := s.checked[path]; ok {
		return p, nil
	}
	return s.std.Import(path)
}

// check type-checks p's non-test files and records what they use, the
// interfaces they declare or name and, under internal/, their exported
// declarations; in package slide, its option constructors.
func (s *exportScan) check(t *testing.T, p listedPackage) {
	t.Helper()
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: s}).Check(p.ImportPath, s.fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	s.checked[p.ImportPath] = pkg

	// A use inside the declaration it names (recursion, a method's own
	// receiver, a type's own methods' receivers) keeps nothing alive.
	self := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				markSelf(info, fd, info.Defs[fd.Name], self)
			}
		}
	}
	for id, obj := range info.Uses {
		if !self[id] {
			s.used[origin(obj)] = true
		}
	}
	for _, sel := range info.Selections {
		s.used[origin(sel.Obj())] = true
	}
	for _, tv := range info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && iface.NumMethods() > 0 {
			s.ifaces = append(s.ifaces, iface)
		}
	}

	scope := pkg.Scope()
	if p.ImportPath == p.Module.Path+"/slide" {
		opt, topt := scope.Lookup("Option").Type(), scope.Lookup("TrainerOption").Type()
		for _, name := range scope.Names() {
			fn, ok := scope.Lookup(name).(*types.Func)
			if !ok || !fn.Exported() {
				continue
			}
			if res := fn.Type().(*types.Signature).Results(); res.Len() == 1 &&
				(types.Identical(res.At(0).Type(), opt) || types.Identical(res.At(0).Type(), topt)) {
				s.options = append(s.options, exportDecl{name, fn})
			}
		}
	}
	rel, ok := strings.CutPrefix(p.ImportPath, p.Module.Path+"/internal/")
	if !ok {
		return
	}
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			s.decls = append(s.decls, exportDecl{rel + "." + name, obj})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				s.decls = append(s.decls, exportDecl{rel + "." + name + "." + m.Name(), m})
			}
		}
		if iface, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				if m := iface.ExplicitMethod(i); m.Exported() {
					s.decls = append(s.decls, exportDecl{rel + "." + name + "." + m.Name(), m})
				}
			}
		}
	}
}

// markSelf marks the identifiers inside fd that name fd's own function or
// the type its receiver belongs to.
func markSelf(info *types.Info, fd *ast.FuncDecl, fn types.Object, self map[*ast.Ident]bool) {
	if fd.Recv != nil {
		ast.Inspect(fd.Recv, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, ok := info.Uses[id].(*types.TypeName); ok {
					self[id] = true
				}
			}
			return true
		})
	}
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == fn {
			self[id] = true
		}
		return true
	})
}

// reached reports whether d is a method that dynamic dispatch can reach:
// its receiver type, or a pointer to it, implements an interface that
// declares a method of the same name.
func (s *exportScan) reached(d exportDecl) bool {
	fn, ok := d.obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if _, ok := typ.Underlying().(*types.Interface); ok {
		return false // an interface's own method lives only through its calls
	}
	for _, iface := range s.ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() &&
				(types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)) {
				return true
			}
		}
	}
	return false
}

// origin maps a method of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}
