package lint

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// Fact is a typed datum an analyzer exports about an object for
// downstream passes to consume — the cross-package half of the
// framework. A fact type is identified by its concrete Go type (so
// two analyzers cannot collide unless they share a type), must be a
// pointer to a struct, and should carry only what downstream rules
// need. The canonical example is atomicfield's marker on struct fields
// that are accessed through sync/atomic: the defining package's pass
// exports it, and every importing package's pass flags plain access.
//
// Facts flow strictly along the import DAG: a pass sees the facts of
// the packages it (transitively) imports, because the runner analyzes
// packages in dependency order. Facts about the objects of a package
// that nothing imports are visible only to that package's own pass.
type Fact interface {
	// AFact is a marker method; it does nothing.
	AFact()
}

// pkgFacts is the fact set one package's pass exports. Each analyzed
// package owns exactly one, created before scheduling, so parallel
// passes write only their own set and read only completed ones — no
// locking needed under the runner's wave barriers.
type pkgFacts struct {
	obj map[types.Object][]Fact
}

func newPkgFacts() *pkgFacts {
	return &pkgFacts{obj: make(map[types.Object][]Fact)}
}

func (s *pkgFacts) exportObject(obj types.Object, f Fact) {
	// One fact per concrete type per object: a re-export overwrites.
	for i, have := range s.obj[obj] {
		if reflect.TypeOf(have) == reflect.TypeOf(f) {
			s.obj[obj][i] = f
			return
		}
	}
	s.obj[obj] = append(s.obj[obj], f)
}

// factStore maps every analyzed package to its fact set. The runner
// pre-creates one entry per package; lookups key on the *types.Package
// identity, which the shared loader guarantees is unique per import
// path.
type factStore struct {
	byPkg map[*types.Package]*pkgFacts
}

func newFactStore(pkgs []*Package) *factStore {
	s := &factStore{byPkg: make(map[*types.Package]*pkgFacts, len(pkgs))}
	for _, pkg := range pkgs {
		s.byPkg[pkg.Types] = newPkgFacts()
	}
	return s
}

// fill copies src into dst through reflection; both must be pointers of
// the same concrete type.
func fill(dst, src Fact) {
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(src)
	if dv.Kind() != reflect.Pointer || sv.Kind() != reflect.Pointer || dv.Type() != sv.Type() {
		return
	}
	dv.Elem().Set(sv.Elem())
}

func (s *factStore) importObject(obj types.Object, f Fact) bool {
	set, ok := s.byPkg[obj.Pkg()]
	if !ok {
		return false
	}
	for _, have := range set.obj[obj] {
		if reflect.TypeOf(have) == reflect.TypeOf(f) {
			fill(f, have)
			return true
		}
	}
	return false
}

// FactLine is one exported fact in the human-readable dump of the
// cmd/nwlint -facts mode.
type FactLine struct {
	// Package is the import path of the exporting package.
	Package string `json:"package"`
	// Object names the annotated object ("(Type).Field").
	Object string `json:"object,omitempty"`
	// Fact is the concrete fact type name.
	Fact string `json:"fact"`
}

// summary flattens the store into deterministic dump lines, sorted by
// package, object, fact type.
func (s *factStore) summary() []FactLine {
	var out []FactLine
	for tpkg, set := range s.byPkg {
		for obj, facts := range set.obj {
			name := obj.Name()
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				name = fieldOwner(tpkg, v) + "." + name
			}
			for _, f := range facts {
				out = append(out, FactLine{Package: tpkg.Path(), Object: name, Fact: factName(f)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Fact < b.Fact
	})
	return out
}

// fieldOwner finds the named type of pkg that declares field v, for
// fact-dump labels; an unmatched field renders as "?".
func fieldOwner(pkg *types.Package, v *types.Var) string {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return name
			}
		}
	}
	return "?"
}

func factName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return fmt.Sprintf("%s", t.Name())
}
