package lint

import "strings"

// Config maps the project's layering conventions onto package paths so
// the analyzers know where each invariant applies. Paths are
// module-relative ("internal/code"); a listed path covers the package
// itself and everything below it.
type Config struct {
	// Module is the module path diagnostics and matching are relative to.
	Module string
	// DeterministicPkgs are the packages whose output must be
	// bit-deterministic: no wall clock, no global math/rand, no map
	// iteration feeding output order.
	DeterministicPkgs []string
	// GoroutinePkgs are the only packages allowed to create goroutines
	// or use sync.WaitGroup (the parallel execution engine).
	GoroutinePkgs []string
	// CtxEntryPkgs are the packages whose exported long-running entry
	// points (parallel *Workers functions, Run/RunAll) must accept a
	// context.Context.
	CtxEntryPkgs []string
	// PrintAllowedPkgs are the non-main packages that may write to
	// stdout directly (the CLI surface, the report generator and the
	// renderers). Packages named main are always allowed.
	PrintAllowedPkgs []string
	// Layering is the allowed package DAG, one row per governed package
	// (rule "layering"). See LayerRule.
	Layering []LayerRule
}

// LayerRule is one row of the layering table. Pkg names the governed
// package (module-relative; a trailing "/" matches the subtree). Deny
// lists packages Pkg must never import; Importers, when non-nil,
// restricts who may import Pkg to the listed packages (same matching).
// Why is the one-line architectural reason, quoted in diagnostics.
type LayerRule struct {
	Pkg       string
	Deny      []string
	Importers []string
	Why       string
}

// DefaultConfig returns the project configuration for the given module
// path (normally "nwdec").
func DefaultConfig(module string) *Config {
	return &Config{
		Module: module,
		DeterministicPkgs: []string{
			"internal/code",
			"internal/core",
			"internal/crossbar",
			"internal/dataset",
			"internal/engine",
			"internal/experiments",
			"internal/geometry",
			"internal/jobs",
			"internal/mspt",
			"internal/nwerr",
			"internal/obs",
			"internal/physics",
			"internal/readout",
			"internal/stats",
			"internal/sweep",
			"internal/yield",
		},
		GoroutinePkgs: []string{"internal/jobs", "internal/par", "cmd/nwserve"},
		CtxEntryPkgs: []string{
			"internal/cluster",
			"internal/core",
			"internal/crossbar",
			"internal/engine",
			"internal/experiments",
			"internal/jobs",
			"internal/readout",
			"internal/sweep",
			"internal/yield",
		},
		PrintAllowedPkgs: []string{
			"internal/cli",
			"internal/report",
			"internal/textplot",
			"internal/viz",
		},
		Layering: []LayerRule{
			// The Backend composition hinges on the cluster routing over
			// the engine facade, never the reverse (DESIGN §12).
			{Pkg: "internal/engine", Deny: []string{"internal/cluster", "internal/jobs"},
				Why: "the cluster composes over the engine's Backend facade; a reverse edge would make the layering circular"},
			// The job layer composes over the engine's identity scheme and
			// the sweep primitives; nothing below it may reach back up.
			{Pkg: "internal/sweep", Deny: []string{"internal/jobs"},
				Why: "jobs partitions and checkpoints sweeps from above; a reverse edge would make the layering circular"},
			// Job chunks reach the cluster only as engine requests: the
			// job layer sits above the routing layer, which never needs
			// jobs types (DESIGN §15).
			{Pkg: "internal/cluster", Deny: []string{"internal/jobs"},
				Why: "jobs routes its chunks through the cluster as engine requests; a reverse edge would make the layering circular"},
			// Observability instruments the pipeline from below; it must
			// never depend on what it measures (DESIGN §9).
			{Pkg: "internal/obs", Deny: []string{"internal/engine", "internal/experiments", "internal/jobs", "internal/par", "internal/cluster"},
				Why: "obs sits below everything it instruments; an upward edge would let metrics feed back into results"},
			// The pool depends on obs only; pulling pipeline packages into
			// par would invert the execution layering.
			{Pkg: "internal/par", Deny: []string{"internal/engine", "internal/experiments", "internal/cluster", "internal/jobs", "internal/sweep"},
				Why: "par is the bottom execution layer; workloads call into it, never the reverse"},
			// Renderers are reachable only from the edges: commands,
			// examples, the CLI surface and the result layers that own
			// text output.
			{Pkg: "internal/textplot", Importers: []string{"cmd/", "examples/", "scripts/", "internal/cli", "internal/dataset", "internal/experiments", "internal/report", "internal/viz"},
				Why: "library packages return data; text rendering belongs to the edges and the dataset/report layers"},
			{Pkg: "internal/viz", Importers: []string{"cmd/", "examples/", "scripts/", "internal/report"},
				Why: "library packages return data; visualization belongs to the command layer"},
		},
	}
}

// rel strips the module prefix from an import path; a path outside the
// module returns "".
func (c *Config) rel(path string) string {
	if path == c.Module {
		return "."
	}
	if strings.HasPrefix(path, c.Module+"/") {
		return strings.TrimPrefix(path, c.Module+"/")
	}
	return ""
}

// matches reports whether the module-relative form of path is one of the
// listed package paths or below one.
func (c *Config) matches(path string, list []string) bool {
	rel := c.rel(path)
	if rel == "" {
		return false
	}
	for _, p := range list {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// Deterministic reports whether path carries the bit-determinism
// invariant.
func (c *Config) Deterministic(path string) bool {
	return c.matches(path, c.DeterministicPkgs)
}

// GoroutineAllowed reports whether path may create goroutines.
func (c *Config) GoroutineAllowed(path string) bool {
	return c.matches(path, c.GoroutinePkgs)
}

// CtxEntry reports whether path's exported long-running entry points
// must accept a context.
func (c *Config) CtxEntry(path string) bool {
	return c.matches(path, c.CtxEntryPkgs)
}

// PrintAllowed reports whether a non-main package at path may write to
// stdout.
func (c *Config) PrintAllowed(path string) bool {
	return c.matches(path, c.PrintAllowedPkgs)
}
