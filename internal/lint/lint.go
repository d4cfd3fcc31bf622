// Package lint is the project's static-analysis engine: a modular,
// type-aware analyzer framework in the shape of go/analysis (stdlib
// only, built on go/ast + go/types) plus the eight project-invariant
// analyzers that turn the repository's correctness conventions into
// machine-checked rules.
//
// The framework runs each Analyzer over a fully type-checked package.
// Every rule is decided from one package alone, so packages are analyzed
// independently, in parallel on the internal/par pool, and the
// diagnostic stream is byte-identical at every worker count.
//
// The invariants the analyzers protect are the ones the paper
// reproduction depends on:
//
//   - determinism — every pipeline stage must be bit-identical at any
//     worker count, so wall-clock reads, the global math/rand source and
//     map-iteration order must never feed output (rule "determinism");
//   - cancellation — context.Context flows first-argument-first through
//     every long-running entry point (rule "ctxfirst");
//   - concurrency containment — goroutines and WaitGroups live only in
//     internal/par, the deterministic execution engine (rule
//     "nogoroutine");
//   - error discipline — no silently discarded error results and no
//     unwrapped fmt.Errorf causes (rule "errcheck");
//   - output discipline — stdout is owned by the cmd layer and the
//     renderers; library packages return data (rule "printbound");
//   - scratch confinement — chunk-local scratch buffers allocated inside
//     a par block closure never escape the chunk (rule "scratchconfine");
//   - typed atomics — atomic values are declared with the typed
//     sync/atomic kinds, never driven through the package-level
//     functions, so no plain access can race an atomic one (rule
//     "typedatomic");
//   - layering — the package DAG is pinned: the engine never imports the
//     cluster, obs stays below the pipeline, and the text renderers are
//     reachable only from the edges (rule "layering").
//
// No source comment can silence a rule. Exceptions live in one place:
// Config's package lists (DeterministicPkgs, GoroutinePkgs,
// PrintAllowedPkgs, ...) decide where each rule applies.
// The cmd/nwlint driver applies the analyzers to module packages; the
// self-tests apply them to fixture packages under testdata/src with
// expected-diagnostic annotations.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer is one named rule: a documented invariant plus the pass that
// enforces it over a type-checked package.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and -rules
	// ("determinism", "ctxfirst", ...).
	Name string
	// Doc is the one-line statement of the invariant the rule protects.
	Doc string
	// Run inspects one package and reports violations through the pass.
	// Runs over distinct packages may execute concurrently; a run must
	// touch nothing outside its pass.
	Run func(*Pass)
}

// All returns the eight project analyzers in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, CtxFirst, NoGoroutine, ErrCheck, PrintBound,
		ScratchConfine, TypedAtomic, Layering,
	}
}

// ByName resolves a comma-separated rule list ("determinism,errcheck").
// An unknown name is an error listing the known rules.
func ByName(list string) ([]*Analyzer, error) {
	all := All()
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		i := slices.IndexFunc(all, func(a *Analyzer) bool { return a.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("lint: unknown rule %q (known: %s)", name, knownRules())
		}
		out = append(out, all[i])
	}
	return out, nil
}

// knownRules lists the rule names for error messages.
func knownRules() string {
	names := make([]string, 0, len(All()))
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// Diagnostic is one reported violation, positioned to the character.
type Diagnostic struct {
	// Position locates the violation (filename, line, column).
	Position token.Position
	// Rule is the analyzer name that produced the diagnostic.
	Rule string
	// Message states the violation and the repair direction.
	Message string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Position.Filename, d.Position.Line, d.Position.Column, d.Rule, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Fset resolves token positions for every file of the package.
	Fset *token.FileSet
	// Path is the package import path the rules match against (fixture
	// packages are loaded under a caller-chosen path).
	Path string
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker tables (types, defs, uses, selections)
	// for the package files.
	Info *types.Info
	// Files are the parsed source files, comments included.
	Files []*ast.File
	// Cfg is the project configuration (which packages are
	// deterministic, where goroutines may live, ...).
	Cfg *Config

	rule  string
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos under the running rule.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Position: p.Fset.Position(pos),
		Rule:     p.rule,
		Message:  fmt.Sprintf(format, args...),
	})
}
