package lint

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

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path the package was loaded under.
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset resolves positions for the files.
	Fset *token.FileSet
	// Files are the parsed sources (non-test files only), with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker tables (types, defs, uses, selections).
	Info *types.Info
}

// Loader loads module packages from source with full type information.
// Imports inside the module are resolved recursively by the loader
// itself; standard-library imports fall back to the go/importer source
// importer, so the whole pipeline needs nothing beyond the stdlib and a
// GOROOT. The loader caches by import path and is not safe for
// concurrent use.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet
	// Module is the module path parsed from go.mod.
	Module string
	// Root is the module root directory.
	Root string

	pkgs     map[string]*Package
	fallback types.ImporterFrom
}

// NewLoader creates a loader rooted at the module containing dir: it
// walks up from dir to the nearest go.mod and parses the module path.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{Fset: fset, Module: module, Root: root, pkgs: make(map[string]*Package)}
	if f, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom); ok {
		l.fallback = f
	} else {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return l, nil
}

// ModulePackages lists the import paths of every package in the module,
// sorted. Directories named testdata, hidden directories and
// underscore-prefixed directories are skipped, matching the go tool's
// "./..." expansion.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if dir != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		has, err := hasGoFiles(dir)
		if err != nil {
			return err
		}
		if !has {
			return nil
		}
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.Module)
		} else {
			paths = append(paths, l.Module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// Load returns the type-checked package at the given module import
// path, loading (and caching) it on first use.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(path, l.Module)
	rel = strings.TrimPrefix(rel, "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	return l.LoadDir(dir, path)
}

// LoadDir parses and type-checks the non-test sources of dir under the
// given import path. The self-tests use it to load fixture packages
// under paths the rules match against.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	if pkg, ok := l.pkgs[asPath]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
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
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(asPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", asPath, err)
	}
	pkg := &Package{Path: asPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[asPath] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal imports are
// loaded from source by the loader itself; everything else (the
// standard library) is delegated to the source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.fallback.ImportFrom(path, dir, mode)
}
