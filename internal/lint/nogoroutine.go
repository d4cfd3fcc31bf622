package lint

import (
	"go/ast"
	"go/types"
)

// NoGoroutine enforces concurrency containment: internal/par is the
// only place goroutines are created or WaitGroups used, so the
// determinism argument (ordered reduction over a bounded pool) has to
// be made exactly once. Everything else expresses parallelism through
// par.Map or the block-level par.ForEachChunks.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc:  "go statements and sync.WaitGroup only inside internal/par (and tests)",
	Run:  runNoGoroutine,
}

func runNoGoroutine(p *Pass) {
	if p.Cfg.GoroutineAllowed(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "goroutine creation is contained in internal/par; use par.Map or par.ForEachChunks so execution stays deterministic and bounded")
			case *ast.SelectorExpr:
				if n.Sel.Name != "WaitGroup" {
					return true
				}
				if id, ok := n.X.(*ast.Ident); ok {
					if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "sync" {
						p.Reportf(n.Pos(), "sync.WaitGroup is contained in internal/par; use the par pool instead")
					}
				}
			}
			return true
		})
	}
}
