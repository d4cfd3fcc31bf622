package lint

import (
	"go/ast"
	"go/types"
)

// TypedAtomic enforces typed atomics: every atomic value is declared as
// one of the sync/atomic types (atomic.Int64, atomic.Pointer[T], ...), so
// the type system forbids a plain read or write next to the atomic ones.
// The legacy package-level functions (atomic.AddInt64(&s.n, 1),
// atomic.LoadUint64(&s.bits), ...) operate on ordinary fields, and one
// plain access elsewhere is a data race the race detector only catches
// when the schedule cooperates. The rule rejects every use of such a
// function — calls, function values and dot-imported names alike — and
// needs no cross-package reasoning: with no function-form call anywhere,
// no field can be accessed both ways.
var TypedAtomic = &Analyzer{
	Name: "typedatomic",
	Doc:  "no package-level sync/atomic functions; declare atomic values with the typed sync/atomic kinds",
	Run:  runTypedAtomic,
}

func runTypedAtomic(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || recvOf(fn) != nil {
				return true // typed-atomic methods (c.n.Add(1)) have a receiver
			}
			p.Reportf(id.Pos(), "atomic.%s operates on a plain value that can still be accessed non-atomically elsewhere; declare it as a typed atomic (atomic.Int64, atomic.Pointer[T], ...) and use its methods", fn.Name())
			return true
		})
	}
}
