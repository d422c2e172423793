package framework

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

// Package is one parsed and typechecked package, the unit an Analyzer runs
// over. It corresponds to the subset of packages.Package the analyzers need.
type Package struct {
	// Path is the import path ("vprobe/internal/sim", or a bare fixture
	// path like "mapiter_a" under an analysistest tree).
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and typechecks packages of a source tree without invoking
// the go tool. Import paths inside the tree resolve to directories via the
// resolve hook; everything else (the standard library) goes through the
// compiler's export data, falling back to typechecking the library source.
type Loader struct {
	Fset    *token.FileSet
	resolve func(path string) (dir string, ok bool)
	std     types.Importer
	stdSrc  types.Importer
	pkgs    map[string]*loadEntry
}

type loadEntry struct {
	pkg     *Package
	err     error
	loading bool
}

func newLoader(resolve func(string) (string, bool)) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		resolve: resolve,
		std:     importer.Default(),
		stdSrc:  importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*loadEntry),
	}
}

// NewModuleLoader returns a loader rooted at the Go module containing dir:
// import paths under the module path resolve into the module tree. It fails
// when no go.mod is found walking up from dir.
func NewModuleLoader(dir string) (*Loader, string, error) {
	root, err := ModuleRoot(dir)
	if err != nil {
		return nil, "", err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, "", err
	}
	ld := newLoader(func(path string) (string, bool) {
		if path == modPath {
			return root, true
		}
		if rel, ok := strings.CutPrefix(path, modPath+"/"); ok {
			d := filepath.Join(root, filepath.FromSlash(rel))
			if st, err := os.Stat(d); err == nil && st.IsDir() {
				return d, true
			}
		}
		return "", false
	})
	return ld, root, nil
}

// NewTreeLoader returns a loader that resolves every import path GOPATH-style
// against srcRoot — the layout analysistest fixtures use (testdata/src/<path>).
func NewTreeLoader(srcRoot string) *Loader {
	return newLoader(func(path string) (string, bool) {
		d := filepath.Join(srcRoot, filepath.FromSlash(path))
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d, true
		}
		return "", false
	})
}

// ModulePath reads the module path from root's go.mod.
func ModulePath(root string) (string, error) {
	return readModulePath(filepath.Join(root, "go.mod"))
}

// ModuleRoot returns the directory of the go.mod enclosing dir.
func ModuleRoot(dir string) (string, error) {
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
			return "", fmt.Errorf("framework: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("framework: no module line in %s", gomod)
}

// Import implements types.Importer, so in-tree imports recurse through the
// loader while standard-library imports use export data (with a source
// fallback for toolchains that ship none).
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ok := l.resolve(path); ok {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if pkg, err := l.std.Import(path); err == nil {
		return pkg, nil
	}
	return l.stdSrc.Import(path)
}

// Load parses and typechecks the package at the given import path
// (memoized). Test files are skipped: the contract governs production code,
// and fixtures never carry tests.
func (l *Loader) Load(path string) (*Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("framework: import cycle through %q", path)
		}
		return e.pkg, e.err
	}
	entry := &loadEntry{loading: true}
	l.pkgs[path] = entry
	pkg, err := l.loadDir(path)
	entry.pkg, entry.err, entry.loading = pkg, err, false
	return pkg, err
}

func (l *Loader) loadDir(path string) (*Package, error) {
	dir, ok := l.resolve(path)
	if !ok {
		return nil, fmt.Errorf("framework: cannot resolve %q to a directory", path)
	}
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("framework: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("framework: typecheck %s: %w", path, typeErrs[0])
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// goFileNames lists the non-test .go files of dir in sorted order.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadPatterns expands go-tool-style patterns ("./...", "./internal/sim")
// relative to the module root and loads every matched package. Directories
// named testdata (analyzer fixtures are deliberate violations), vendor, or
// starting with "." or "_" are pruned.
func (l *Loader) LoadPatterns(root, modPath string, patterns []string) ([]*Package, error) {
	dirSet := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !dirSet[dir] {
			dirSet[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		base := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if names, err := goFileNames(p); err == nil && len(names) > 0 {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
