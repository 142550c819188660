package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// facadePath is the root facade, the module's public surface. Its
// exported declarations are API for programs outside the module, so
// nothing inside the module has to use them.
const facadePath = "hpmmap"

// exemptTLB lists the concrete TLB, which nothing runs: the
// simulation reads only tlb.Config.MissRate. The benchmark times two
// of these (tlb.bench.AccessHit and AccessStreaming4K), so they go
// with the benchmark's re-baseline, not one at a time.
var exemptTLB = []string{
	"hpmmap/internal/tlb.MustNew",
	"hpmmap/internal/tlb.NewHierarchy",
	"hpmmap/internal/tlb.DefaultHierarchy",
	"hpmmap/internal/tlb.DefaultConfig",
	"(*hpmmap/internal/tlb.TLB).Observe",
	"(*hpmmap/internal/tlb.TLB).FlushPage",
	"(*hpmmap/internal/tlb.TLB).ArrayStats",
	"(*hpmmap/internal/tlb.TLB).Config",
	"(*hpmmap/internal/tlb.Hierarchy).Access",
	"(*hpmmap/internal/tlb.Hierarchy).Flush",
}

// TestUnused fails on every package-level func, method, type, var or
// const of the module or of benchmark/ that nothing uses. A
// declaration is used when an identifier outside its own declaration
// refers to it, from a non-test file of any package or from a test
// file of another package; the declaring package's own tests do not
// count. A method is also used when its receiver type, or a pointer to
// it, implements an interface that has a method of that name: error,
// fmt.Stringer, or an interface that a non-test file of either module
// declares or names.
//
// Every package is type-checked from source, its in-package test
// files with it; everything else is imported from the export data
// that `go list -export` reports.
func TestUnused(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found; cannot list the module's packages")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadScan(gobin, root)
	if err != nil {
		t.Fatal(err)
	}

	exempt := make(map[string]bool, len(exemptTLB))
	for _, name := range exemptTLB {
		exempt[name] = true
	}
	facade := 0
	for _, d := range s.unused() {
		switch {
		case exempt[d.name]:
			delete(exempt, d.name)
		case d.obj.Pkg().Path() == facadePath && d.obj.Exported() && exportedRecv(d.obj):
			facade++
		default:
			file, err := filepath.Rel(root, d.pos.Filename)
			if err != nil {
				file = d.pos.Filename
			}
			t.Errorf("%s:%d: %s is unused", file, d.pos.Line, d.name)
		}
	}
	for _, name := range exemptTLB {
		if exempt[name] {
			t.Errorf("stale exemption: %s has a user or no longer exists; drop it from exemptTLB", name)
		}
	}
	if facade == 0 {
		t.Errorf("stale exemption: every exported declaration of package %s has a user; drop the facade exemption", facadePath)
	}
}

// listed is the part of `go list -json` output the scan reads.
type listed struct {
	Dir          string
	ImportPath   string
	Export       string
	Module       *struct{ Main bool }
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	TestImports  []string
	XTestImports []string
}

// scan type-checks both modules from source.
type scan struct {
	fset   *token.FileSet
	export map[string]string  // import path -> export data file
	pkgs   map[string]*listed // this module's and benchmark/'s packages
	gc     types.Importer

	checked map[string]*types.Package
	infos   []*types.Info
	files   map[*token.File]fileOf
	parsed  []*ast.File
	errs    []error
}

// fileOf is what the scan knows of a parsed file.
type fileOf struct {
	pkg  string // import path of the package the file belongs to or tests
	test bool
	info *types.Info
}

func loadScan(gobin, root string) (*scan, error) {
	s := &scan{
		fset:    token.NewFileSet(),
		export:  make(map[string]string),
		pkgs:    make(map[string]*listed),
		checked: make(map[string]*types.Package),
		files:   make(map[*token.File]fileOf),
	}
	s.gc = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := s.export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	for _, dir := range []string{root, filepath.Join(root, "benchmark")} {
		if err := s.list(gobin, dir, "./..."); err != nil {
			return nil, err
		}
	}
	var missing []string
	for _, p := range s.pkgs {
		for _, path := range append(p.TestImports, p.XTestImports...) {
			if s.export[path] == "" && s.pkgs[path] == nil && path != "unsafe" {
				missing = append(missing, path)
			}
		}
	}
	if len(missing) > 0 {
		if err := s.list(gobin, root, missing...); err != nil {
			return nil, err
		}
	}
	if err := readTree(root); err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(s.pkgs))
	for path := range s.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		s.check(path)
	}
	for _, path := range paths {
		if p := s.pkgs[path]; len(p.XTestGoFiles) > 0 {
			s.checkFiles(path+"_test", path, p.Dir, nil, p.XTestGoFiles)
		}
	}
	if len(s.errs) > 0 {
		return nil, errors.Join(s.errs...)
	}
	return s, nil
}

// list runs `go list -export -deps -json` in dir and records the
// export data of every dependency and the files of every main-module
// package.
func (s *scan) list(gobin, dir string, patterns ...string) error {
	cmd := exec.Command(gobin, append([]string{"list", "-export", "-deps", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return err
		}
		if p.Module != nil && p.Module.Main {
			s.pkgs[p.ImportPath] = p
		} else if p.Export != "" {
			s.export[p.ImportPath] = p.Export
		}
	}
	return nil
}

// readTree opens every directory of the module. go test keys a cached
// pass on the files and directories the test opens, not on those the
// go command reads for it, so this and the parsing below make an edit,
// a new file or a new package anywhere re-run the test.
func readTree(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		return nil
	})
}

// Import resolves the module's packages to their source check and
// everything else to export data.
func (s *scan) Import(path string) (*types.Package, error) {
	if s.pkgs[path] != nil {
		return s.check(path), nil
	}
	return s.gc.Import(path)
}

// check type-checks a package with its in-package test files, which
// the go command forbids to import anything that imports the package.
func (s *scan) check(path string) *types.Package {
	if pkg, ok := s.checked[path]; ok {
		return pkg
	}
	p := s.pkgs[path]
	pkg := s.checkFiles(path, path, p.Dir, p.GoFiles, p.TestGoFiles)
	s.checked[path] = pkg
	return pkg
}

// checkFiles type-checks the non-test and test files of dir as package
// path, which belongs to or tests the package under.
func (s *scan) checkFiles(path, under, dir string, names, testNames []string) *types.Package {
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	var files []*ast.File
	for i, name := range append(names[:len(names):len(names)], testNames...) {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			s.errs = append(s.errs, err)
			continue
		}
		files = append(files, f)
		s.files[s.fset.File(f.Pos())] = fileOf{pkg: under, test: i >= len(names), info: info}
	}
	s.parsed = append(s.parsed, files...)
	s.infos = append(s.infos, info)
	conf := types.Config{Importer: s, Error: func(err error) { s.errs = append(s.errs, err) }}
	pkg, _ := conf.Check(path, s.fset, files, info)
	return pkg
}

// decl is one package-level declaration of a non-test file.
type decl struct {
	obj        types.Object
	name       string
	pos        token.Position
	start, end token.Pos // the declaration, whose references to itself do not count
}

// unused returns the declarations nothing uses, in source order.
func (s *scan) unused() []*decl {
	decls := make(map[types.Object]*decl)
	receivers := make(map[*ast.Ident]bool) // a method's receiver does not use its type
	for _, f := range s.parsed {
		if of := s.files[s.fset.File(f.Pos())]; !of.test {
			for _, d := range f.Decls {
				s.declare(decls, receivers, of.info, f, d)
			}
		}
	}

	used := make(map[types.Object]bool)
	for _, info := range s.infos {
		for id, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			d := decls[obj]
			if d == nil || used[obj] || receivers[id] || (d.start <= id.Pos() && id.Pos() < d.end) {
				continue
			}
			if from := s.files[s.fset.File(id.Pos())]; from.test && from.pkg == obj.Pkg().Path() {
				continue
			}
			used[obj] = true
		}
	}

	ifaces := s.interfaces()
	var out []*decl
	for obj, d := range decls {
		if !used[obj] && !implements(obj, ifaces) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].obj.Pos() < out[j].obj.Pos() })
	return out
}

func (s *scan) declare(decls map[types.Object]*decl, receivers map[*ast.Ident]bool, info *types.Info, f *ast.File, d ast.Decl) {
	add := func(id *ast.Ident, start, end token.Pos) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		name := obj.Pkg().Path() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			name = fn.FullName()
		}
		decls[obj] = &decl{obj: obj, name: name, pos: s.fset.Position(id.Pos()), start: start, end: end}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil {
			ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					receivers[id] = true
				}
				return true
			})
		} else if d.Name.Name == "init" || (d.Name.Name == "main" && f.Name.Name == "main") {
			return
		}
		add(d.Name, d.Pos(), d.End())
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				add(spec.Name, spec.Pos(), spec.End())
			case *ast.ValueSpec:
				for _, id := range spec.Names {
					add(id, spec.Pos(), spec.End())
				}
			}
		}
	}
}

// interfaces returns, by method name, error, fmt.Stringer and every
// interface that a type expression of a non-test file names or
// declares.
func (s *scan) interfaces() map[string][]*types.Interface {
	seen := make(map[*types.Interface]bool)
	out := make(map[string][]*types.Interface)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			out[name] = append(out[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	if fmtPkg, err := s.Import("fmt"); err == nil {
		add(fmtPkg.Scope().Lookup("Stringer").Type())
	}
	for _, info := range s.infos {
		for e, tv := range info.Types {
			if tv.IsType() && !s.files[s.fset.File(e.Pos())].test {
				add(tv.Type)
			}
		}
	}
	return out
}

// implements reports whether obj is a method whose receiver type, or
// a pointer to it, implements an interface with a method of its name.
func implements(obj types.Object, ifaces map[string][]*types.Interface) bool {
	t := recvType(obj)
	if t == nil {
		return false
	}
	for _, it := range ifaces[obj.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// exportedRecv reports whether obj is not a method, or a method of an
// exported type.
func exportedRecv(obj types.Object) bool {
	t := recvType(obj)
	if t == nil {
		return true
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Exported()
}

// recvType returns the receiver's type, without its pointer, of a
// method, and nil for anything else.
func recvType(obj types.Object) types.Type {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}
