package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoDeadExports is the reachability gate over internal/: every
// exported function or method declared in a non-test file there must be
// referenced from some non-test file of the module or of perfbench, or
// satisfy an interface. Code that only tests call belongs in a _test.go
// file of the package that uses it.
func TestNoDeadExports(t *testing.T) {
	dead, err := deadExports(".", "internal/testutil")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("no non-test caller: %s", d)
	}
}

// TestDeadExportsFixture holds the gate to a planted module: one unused
// export it must flag, a sort.Interface method set reached only through
// sort.Sort, and a function only perfbench calls.
func TestDeadExportsFixture(t *testing.T) {
	dead, err := deadExports(filepath.Join("testdata", "deadexports"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/lib/lib.go: Planted"}
	if strings.Join(dead, "\n") != strings.Join(want, "\n") {
		t.Fatalf("flagged %q, want %q", dead, want)
	}
}

// deadExports type-checks every package of the module at root (nested
// modules and testdata skipped) plus root/perfbench, which is read as
// callers only, and returns the exported functions and methods under
// root/internal that nothing references, as "file: Name" or
// "file: Type.Name". A method counts as used when its receiver type, or a
// pointer to it, implements an interface that has the method: calls made
// through the interface (sort.Sort, fmt's Stringer, a package's own
// interfaces) never name the concrete method. Packages under allow are
// not judged.
func deadExports(root string, allow ...string) ([]string, error) {
	// The scan needs declarations only. With cgo on, the source importer
	// runs `go tool cgo` on std packages such as net, which fails on a
	// machine without a C compiler; with it off, cgo files drop out.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false

	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		name := d.Name()
		if rel != "." && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if rel != "." && rel != "perfbench" {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		importPath := module
		if rel != "." {
			importPath = module + "/" + rel
		}
		return l.parseDir(importPath, path)
	})
	if err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(l.files))
	for p := range l.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}

	// Candidates: exported funcs and methods declared under internal/.
	type candidate struct {
		fn   *types.Func
		decl *ast.FuncDecl
		file string
	}
	var cands []candidate
	for _, p := range paths {
		rel := strings.TrimPrefix(strings.TrimPrefix(p, module), "/")
		if !strings.HasPrefix(rel, "internal/") || allowed(rel, allow) {
			continue
		}
		for _, f := range l.files[p] {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, _ := l.info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				file, _ := filepath.Rel(root, l.fset.Position(fd.Pos()).Filename)
				cands = append(cands, candidate{fn, fd, filepath.ToSlash(file)})
			}
		}
	}

	// A use inside the function's own body (recursion) does not count.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, c := range cands {
		decls[c.fn] = c.decl
	}
	used := map[*types.Func]bool{}
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d := decls[fn]; d != nil && id.Pos() >= d.Pos() && id.Pos() < d.End() {
			continue
		}
		used[fn] = true
	}

	ifaces := l.interfaces()
	var dead []string
	for _, c := range cands {
		if used[c.fn] {
			continue
		}
		name := c.fn.Name()
		if recv := c.fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if satisfies(t, name, ifaces) {
				continue
			}
			if named, ok := t.(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
		}
		dead = append(dead, c.file+": "+name)
	}
	sort.Strings(dead)
	return dead, nil
}

func allowed(rel string, allow []string) bool {
	for _, a := range allow {
		if rel == a || strings.HasPrefix(rel, a+"/") {
			return true
		}
	}
	return false
}

// satisfies reports whether t or *t implements one of ifaces that has a
// method called name.
func satisfies(t types.Type, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, name); obj == nil {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// loader type-checks the module's packages from source into one shared
// types.Info, resolving the standard library with std.
type loader struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
}

func (l *loader) parseDir(importPath, dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		l.files[importPath] = append(l.files[importPath], f)
	}
	return nil
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// interfaces returns every interface with methods that the checked code
// mentions: named ones in any package it reaches, standard library
// included, and interface literals in its own expressions.
func (l *loader) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	for _, tv := range l.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	return out
}
