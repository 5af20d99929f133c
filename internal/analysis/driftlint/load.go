package driftlint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package plus the side tables
// the framework needs (directive index, load error).
type Package struct {
	Path  string // import path
	Dir   string // directory the files were read from
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Err is the first parse or type error (nil for a clean package);
	// ErrPos locates it when known.
	Err    error
	ErrPos token.Position

	allows directiveIndex
}

// A Loader resolves import paths to directories and type-checks
// packages with no tooling beyond the standard library: module-local
// paths come from the module tree, fixture paths from extra roots, and
// everything else from GOROOT source via go/importer's "source" mode
// (which needs no pre-compiled export data and therefore works in the
// hermetic build image).
type Loader struct {
	Fset   *token.FileSet
	Module string // module path from go.mod, e.g. "videodrift"
	Root   string // module root directory

	// ExtraRoots are additional directories searched for import paths
	// that are neither module-local nor standard library — the
	// analysistest fixture tree (testdata/src) plugs in here.
	ExtraRoots []string

	std  types.ImporterFrom
	pkgs map[string]*Package
}

// NewLoader builds a loader for the module rooted at root.
func NewLoader(module, root string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		Module: module,
		Root:   root,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*Package{},
	}
}

// FindModuleRoot walks up from dir to the enclosing go.mod and returns
// the module path and root directory.
func FindModuleRoot(dir string) (module, root string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), dir, nil
				}
			}
			return "", "", fmt.Errorf("driftlint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("driftlint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// resolveDir maps an import path to the directory holding its sources,
// or "" when the path is not module-local and not under an extra root
// (i.e. presumed standard library).
func (l *Loader) resolveDir(path string) string {
	if path == l.Module {
		return l.Root
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest))
	}
	for _, root := range l.ExtraRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
	}
	return ""
}

// Import implements types.Importer so package type-checking resolves
// its dependencies through the loader.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.resolveDir(path); dir != "" {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg.Err != nil {
			return nil, pkg.Err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.Root, 0)
}

// Load type-checks the package at the import path (module-local or
// under an extra root), memoized per loader.
func (l *Loader) Load(path string) (*Package, error) {
	dir := l.resolveDir(path)
	if dir == "" {
		return nil, fmt.Errorf("driftlint: cannot resolve import path %q", path)
	}
	return l.load(path, dir)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset}
	l.pkgs[path] = pkg

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("driftlint: no Go source files in %s", dir)
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			if pkg.Err == nil {
				pkg.Err = err
			}
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.allows = buildDirectives(l.Fset, pkg.Files)
	if pkg.Err != nil {
		return pkg, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if pkg.Err == nil {
				pkg.Err = err
				if terr, ok := err.(types.Error); ok {
					pkg.ErrPos = terr.Fset.Position(terr.Pos)
				}
			}
		},
	}
	tpkg, err := conf.Check(path, l.Fset, pkg.Files, info)
	if pkg.Err == nil && err != nil {
		pkg.Err = err
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// goSources lists the .go files of a directory the compiler would build
// on this platform: no _test files, no hidden or underscore-prefixed
// names, and only files whose name suffix and //go:build line match
// (build.Default knows GOOS, GOARCH and the GOAMD64 level, so a package
// with one file per architecture type-checks as one of them).
func goSources(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Expand resolves Go-tool-style package patterns ("./...",
// "./internal/core", "videodrift/internal/...") against the module tree
// into import paths, skipping testdata, vendor and hidden directories.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var paths []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
		if pat == "." {
			pat = ""
		}
		// Accept both directory-relative and import-path-absolute forms.
		pat = strings.TrimPrefix(strings.TrimPrefix(pat, l.Module+"/"), l.Module)
		recursive := false
		if pat == "..." {
			pat, recursive = "", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		base := filepath.Join(l.Root, filepath.FromSlash(pat))
		if !recursive {
			if names, err := goSources(base); err != nil || len(names) == 0 {
				return nil, fmt.Errorf("driftlint: no Go package at %q", pat)
			}
			add(l.importPathFor(pat))
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
			if names, err := goSources(p); err == nil && len(names) > 0 {
				rel, err := filepath.Rel(l.Root, p)
				if err != nil {
					return err
				}
				add(l.importPathFor(filepath.ToSlash(rel)))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return paths, nil
}

func (l *Loader) importPathFor(rel string) string {
	if rel == "" || rel == "." {
		return l.Module
	}
	return l.Module + "/" + rel
}
