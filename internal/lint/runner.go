package lint

import (
	"context"
	"sort"

	"nwdec/internal/par"
)

// Run applies the analyzers to every package serially and returns the
// surviving diagnostics in deterministic order. It is the workers = 1
// form of RunParallel, kept as the convenience surface for the
// per-package lint self-tests.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	diags, err := RunParallel(context.Background(), 1, pkgs, analyzers, cfg)
	if err != nil {
		// The only error source is context cancellation, and the
		// background context cannot be cancelled.
		panic("lint: serial run failed: " + err.Error())
	}
	return diags
}

// RunParallel applies the analyzers to every package and returns the
// surviving diagnostics sorted by position. No rule looks beyond the
// package it runs on, so the packages are independent and run
// concurrently on a bounded par pool. Diagnostic output is
// byte-identical at every worker count: each package collects into its
// own slice and the merged stream is fully ordered (file, line, column,
// rule, message).
func RunParallel(ctx context.Context, workers int, pkgs []*Package, analyzers []*Analyzer, cfg *Config) ([]Diagnostic, error) {
	perPkg, err := par.Map(ctx, workers, pkgs, func(_ context.Context, _ int, pkg *Package) ([]Diagnostic, error) {
		return analyze(pkg, analyzers, cfg), nil
	})
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// analyze runs every analyzer over one package. It touches only its own
// pass state and reads the shared package data, so concurrent calls over
// distinct packages are race-free.
func analyze(pkg *Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	var diags []Diagnostic
	pass := &Pass{
		Fset:  pkg.Fset,
		Path:  pkg.Path,
		Pkg:   pkg.Types,
		Info:  pkg.Info,
		Files: pkg.Files,
		Cfg:   cfg,
		diags: &diags,
	}
	for _, a := range analyzers {
		pass.rule = a.Name
		a.Run(pass)
	}
	return diags
}
