// Command nwlint runs the project's static analyzers over the module
// and reports every violation of the determinism, cancellation,
// concurrency-containment, error-discipline, output-discipline,
// scratch-confinement, typed-atomics and layering invariants (see
// internal/lint).
//
// Usage:
//
//	nwlint [flags] [packages]
//
// With no arguments every package of the module is checked. An argument
// ending in "..." selects the module packages at or below its directory
// ("./...", "./internal/lint/..."); any other argument is one package
// directory. Packages are analyzed independently and in parallel
// (-workers bounds the pool; output is byte-identical at every worker
// count). nwlint only reports: it never rewrites source, and no source
// comment silences a rule.
//
// Exit codes follow the internal/cli convention: 0 when the tree is
// clean, 1 when diagnostics were found or the analysis failed, 2 on a
// usage error (including a pattern that matches no package).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nwdec/internal/cli"
	"nwdec/internal/dataset"
	"nwdec/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a structured JSON dataset")
	rules := flag.String("rules", "", "comma-separated rule subset to run (default: all)")
	list := flag.Bool("list", false, "list the available rules and exit")
	workers := flag.Int("workers", 0, "parallel analysis workers (0 = GOMAXPROCS)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "nwlint: %v\n", err)
		os.Exit(cli.ExitError)
	}
	usage := func(err error) {
		fmt.Fprintf(os.Stderr, "nwlint: %v\n", err)
		os.Exit(cli.ExitUsage)
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		os.Exit(cli.ExitOK)
	}

	analyzers := lint.All()
	if *rules != "" {
		var err error
		analyzers, err = lint.ByName(*rules)
		if err != nil {
			usage(err)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fail(err)
	}

	paths, err := targetPaths(loader, flag.Args())
	if err != nil {
		usage(err)
	}

	pkgs := make([]*lint.Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fail(err)
		}
		pkgs = append(pkgs, pkg)
	}

	diags, err := lint.RunParallel(context.Background(), *workers, pkgs, analyzers, lint.DefaultConfig(loader.Module))
	if err != nil {
		fail(err)
	}

	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Position.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Position.Filename = rel
		}
	}

	if *jsonOut {
		if err := lint.Dataset(diags).Render(os.Stdout, dataset.FormatJSON); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "nwlint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(cli.ExitError)
	}
}

// targetPaths expands the command arguments into module import paths.
// An argument ending in "..." selects every module package at or below
// its directory and must match at least one; any other argument is one
// package directory. Paths are relative to the working directory; no
// arguments selects the whole module.
func targetPaths(loader *lint.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		return loader.ModulePackages()
	}
	var all, out []string
	for _, arg := range args {
		dir, tree := strings.CutSuffix(arg, "...")
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(loader.Root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("package %q is outside module %s", arg, loader.Module)
		}
		path := loader.Module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if !tree {
			out = append(out, path)
			continue
		}
		if all == nil {
			if all, err = loader.ModulePackages(); err != nil {
				return nil, err
			}
		}
		n := len(out)
		for _, p := range all {
			if p == path || strings.HasPrefix(p, path+"/") {
				out = append(out, p)
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("pattern %q matches no package", arg)
		}
	}
	return out, nil
}
