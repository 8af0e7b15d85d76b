// Package load parses and type-checks the module's packages from source so
// the multihitvet analyzers can run with full type information without any
// dependency outside the standard library.
//
// The container building this repository has no module proxy access, so the
// usual golang.org/x/tools/go/packages loader is unavailable. This loader
// covers exactly what the analyzers need instead: it discovers every package
// under the module root, parses the non-test files with comments (the
// //lint:allow suppression syntax lives in comments), topologically
// type-checks module-internal imports itself, and delegates standard-library
// imports to the compiler's source importer.
package load

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/cover", or the fixture name
	// for analysistest packages).
	Path string
	// Name is the package name from the source files.
	Name string
	// Dir is the directory the files were read from.
	Dir string
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's expression/object tables.
	Info *types.Info
}

// Loader loads packages for one module. It memoizes by import path, so a
// package shared by several roots is checked once — which also means every
// package in a run shares one type-checker universe: an object imported by
// a dependent package IS the object of the defining package, the identity
// the analysis fact store relies on.
type Loader struct {
	// Fset is the file set shared by every loaded package.
	Fset *token.FileSet

	// FixtureDir, when set, resolves otherwise-unknown single-element
	// import paths against <FixtureDir>/<path> before falling back to the
	// standard library. analysistest sets it to its testdata/src directory
	// so fixture packages can import sibling fixtures — the way a fixture
	// "cover" package imports a fixture "bitmat" package to exercise
	// cross-package facts.
	FixtureDir string

	root    string // module root directory
	modPath string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at root (the directory
// holding go.mod).
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modPath }

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("load: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("load: no module directive in %s", gomod)
}

// LoadAll discovers and loads every package under the module root, sorted by
// import path. Directories named testdata, hidden directories, nested
// modules (directories with their own go.mod, which `go build ./...` also
// leaves out), and directories without non-test Go files are skipped.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != l.root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		ip := l.modPath
		if rel != "." {
			ip = l.modPath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Import(p)
		if err != nil {
			return nil, fmt.Errorf("load: %s: %w", p, err)
		}
		out = append(out, l.pkgs[pkg.Path()])
	}
	return out, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test Go
// file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

// isSourceFile reports whether name is a non-test Go source file.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// LoadDir loads the single package in dir under the given import path. It is
// used by analysistest, whose fixture packages live outside the module tree
// but may import module packages (which resolve against the module root).
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	return l.check(dir, path)
}

// Import implements types.Importer: module-internal paths are loaded from
// source under the module root, fixture-sibling paths (see FixtureDir)
// from the fixture tree, and everything else goes to the standard
// library's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		if pkg, ok := l.pkgs[path]; ok {
			return pkg.Types, nil
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		dir := filepath.Join(l.root, filepath.FromSlash(rel))
		pkg, err := l.check(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if l.FixtureDir != "" && !strings.Contains(path, "/") {
		if dir := filepath.Join(l.FixtureDir, path); hasGoFiles(dir) {
			if pkg, ok := l.pkgs[path]; ok {
				return pkg.Types, nil
			}
			pkg, err := l.check(dir, path)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	return l.std.Import(path)
}

// DAGSort orders packages dependencies-first: a package appears after every
// package in the slice it (transitively) imports. Ties — packages with no
// ordering constraint between them — break by import path, so the order is
// deterministic for any input permutation. Imports outside the given slice
// impose no constraint. The input is not modified.
//
// This is the order analysis.Run visits packages in, so facts exported
// while analyzing a dependency are always on the table before any dependent
// is analyzed.
func DAGSort(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	// indegree counts in-set imports; dependents lists reverse edges.
	indegree := make(map[string]int, len(pkgs))
	dependents := make(map[string][]string, len(pkgs))
	for _, p := range pkgs {
		indegree[p.Path] += 0
		for _, imp := range p.Types.Imports() {
			if _, ok := byPath[imp.Path()]; ok {
				indegree[p.Path]++
				dependents[imp.Path()] = append(dependents[imp.Path()], p.Path)
			}
		}
	}
	var ready []string
	for path, d := range indegree {
		if d == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)
	out := make([]*Package, 0, len(pkgs))
	for len(ready) > 0 {
		path := ready[0]
		ready = ready[1:]
		out = append(out, byPath[path])
		var freed []string
		for _, dep := range dependents[path] {
			indegree[dep]--
			if indegree[dep] == 0 {
				freed = append(freed, dep)
			}
		}
		if len(freed) > 0 {
			ready = append(ready, freed...)
			sort.Strings(ready)
		}
	}
	// A cycle is impossible for type-checked Go packages, but stay total:
	// append whatever remains, by path.
	if len(out) < len(pkgs) {
		var rest []string
		for path, d := range indegree {
			if d > 0 {
				rest = append(rest, path)
			}
		}
		sort.Strings(rest)
		for _, path := range rest {
			out = append(out, byPath[path])
		}
	}
	return out
}

// check parses and type-checks one directory as the package at path.
func (l *Loader) check(dir, path string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path:  path,
		Name:  tpkg.Name(),
		Dir:   dir,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}
